package core_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestPropICAcrossOptimizePublish drives concurrent workers over the
// shape-polymorphism endpoints while the global retranslation swaps
// the index, then force-backdates every published inline-cache entry
// to a stale epoch. The protocol under test (DESIGN.md §14):
//
//  1. IC fills and hits race benignly across workers (copy-on-write
//     tables, last-writer-wins installs) with outputs bit-identical
//     to the interpreter reference;
//  2. a stale-epoch IC link is ignored wholesale — the probe treats
//     the site as cold, refills against the current epoch, and no
//     stale table is ever trusted;
//  3. the refill traffic rebuilds planted stale entries on its path to
//     the current epoch.
//
// Run under -race this exercises concurrent StoreLink/LoadLink on the
// IC slots against the lock-free probe path.
func TestPropICAcrossOptimizePublish(t *testing.T) {
	src, all := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var eps []workload.Endpoint
	for _, ep := range all {
		if strings.HasPrefix(ep.Name, "shape_") {
			eps = append(eps, ep)
		}
	}
	if len(eps) == 0 {
		t.Fatal("no shape_ endpoints in the suite")
	}

	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for _, ep := range eps {
		var sb strings.Builder
		refEng.VM.SetOut(&sb)
		val, err := refEng.Call(workload.EndpointFunc(ep.Name))
		if err != nil {
			t.Fatalf("reference %s: %v", ep.Name, err)
		}
		refEng.Heap().DecRef(val)
		ref[ep.Name] = sb.String()
	}

	cfg := jit.DefaultConfig()
	cfg.EnableShapes = true
	cfg.ProfileTrigger = 300
	cfg.BackgroundCompile = true
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	ws := make([]*vm.VM, workers)
	ws[0] = eng.VM
	for i := 1; i < workers; i++ {
		ws[i] = eng.NewWorker(io.Discard)
	}

	serve := func(rounds int) error {
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(v *vm.VM) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, ep := range eps {
						fn, ok := unit.FuncByName(workload.EndpointFunc(ep.Name))
						if !ok {
							errCh <- fmt.Errorf("endpoint %s: missing function", ep.Name)
							return
						}
						var sb strings.Builder
						v.SetOut(&sb)
						val, err := v.CallFunc(fn, nil, nil)
						if err != nil {
							errCh <- fmt.Errorf("endpoint %s: %v", ep.Name, err)
							return
						}
						v.Heap.DecRef(val)
						if sb.String() != ref[ep.Name] {
							errCh <- fmt.Errorf("endpoint %s: output diverged:\n got %q\nwant %q",
								ep.Name, sb.String(), ref[ep.Name])
							return
						}
					}
				}
			}(ws[i])
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		return nil
	}

	// Straddle the optimized publish with concurrent IC traffic.
	if err := serve(30); err != nil {
		t.Fatal(err)
	}
	j := eng.VM.JIT
	deadline := time.Now().Add(10 * time.Second)
	for !j.Optimized() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !j.Optimized() {
		t.Fatal("optimized index never published")
	}
	if err := serve(5); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.PropICHits == 0 {
		t.Fatal("inline caches never hit; the shape IC path never engaged")
	}

	// Back-date every filled IC to a stale epoch.
	epoch := j.Epoch()
	planted := 0
	j.ForEachTranslation(func(tr *jit.Translation) {
		code := tr.Code
		code.ForEachLink(func(i int, l *mcode.Link) {
			if _, ok := l.Target.(*machine.PropIC); !ok {
				return
			}
			code.StoreLink(i, &mcode.Link{Epoch: epoch - 1, Target: l.Target})
			planted++
		})
	})
	if planted == 0 {
		t.Fatal("no IC tables were bound in the published code")
	}

	// The probe must ignore every planted table (counted as misses)
	// and refill against the current epoch, without output divergence.
	missBefore := eng.Stats().PropICMisses
	if err := serve(10); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().PropICMisses == missBefore {
		t.Error("backdated IC tables were never treated as cold")
	}
	current, rebuilt, stale := j.Epoch(), 0, 0
	j.ForEachTranslation(func(tr *jit.Translation) {
		tr.Code.ForEachLink(func(i int, l *mcode.Link) {
			if _, ok := l.Target.(*machine.PropIC); !ok {
				return
			}
			if l.Epoch == current {
				rebuilt++
			} else {
				stale++
			}
		})
	})
	if rebuilt == 0 {
		t.Error("no IC site was rebuilt to the current epoch after the stale plant")
	}
	// How many sites stay stale is not asserted: the protocol promises
	// that a back-dated table is never trusted (the misses above, the
	// outputs serve compared), not that every site is visited again, and
	// the index holds translations the refill traffic cannot reach —
	// tracelets minted while the optimized publish was in flight, whose
	// ICs were filled before it and which regions formed from that run's
	// profile now shadow. Which ones exist depends on scheduling.
	t.Logf("IC sites after the refill traffic: %d rebuilt, %d still stale", rebuilt, stale)
}
