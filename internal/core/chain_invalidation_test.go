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
	"repro/internal/mcode"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestChainLinksAcrossOptimizePublish drives 4 workers with direct
// chaining enabled across the profiling → global-retranslation swap,
// then checks the link-invalidation protocol end to end:
//
//  1. every output stays bit-identical to the interpreter reference
//     while sites are being smashed concurrently;
//  2. after the index swap no link with a non-current epoch survives
//     (the treadmill sweep plus the profiling-never-chainable rule);
//  3. links forcibly back-dated to a stale epoch are rejected by the
//     epoch guard on the next transfer and repaired back to the
//     current epoch, with outputs again bit-identical.
//
// Run under -race this also exercises concurrent StoreLink/LoadLink
// against the lock-free follower path.
func TestChainLinksAcrossOptimizePublish(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference outputs from a pure interpreter.
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
	cfg.ProfileTrigger = 300 // fire the global trigger mid-run
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

	// Phase 1: straddle the publish with concurrent smashing traffic.
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
	// A few more rounds so post-publish code binds its sites.
	if err := serve(5); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.BindsSmashed == 0 {
		t.Fatal("no bind sites were smashed; chaining never engaged")
	}
	if st.ChainedJumps == 0 {
		t.Error("no chained jumps followed the smashed sites")
	}

	// Invariant 2: no stale link survives the index swap. Also plant
	// back-dated links on every bound site for phase 2.
	epoch := j.Epoch()
	if epoch == 0 {
		t.Fatal("publish did not advance the link epoch")
	}
	planted := 0
	j.ForEachTranslation(func(tr *jit.Translation) {
		code := &tr.Code
		code.ForEachLink(func(i int, l *mcode.Link) {
			if l.Epoch != epoch {
				t.Errorf("stale link survived the swap: func %d pc %d site %d has epoch %d, index epoch %d",
					tr.FuncID, tr.PC, i, l.Epoch, epoch)
			}
			code.StoreLink(i, &mcode.Link{Epoch: l.Epoch - 1, Target: l.Target})
			planted++
		})
	})
	if planted == 0 {
		t.Fatal("no links were bound after the publish")
	}

	// Phase 3: the epoch guard must reject every planted link, fall
	// back, and re-smash — without output divergence.
	staleBefore := eng.Stats().StaleLinks
	if err := serve(10); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.StaleLinks == staleBefore {
		t.Error("planted stale links were never detected by the epoch guard")
	}
	current, repaired := j.Epoch(), 0
	j.ForEachTranslation(func(tr *jit.Translation) {
		tr.Code.ForEachLink(func(i int, l *mcode.Link) {
			if l.Epoch > current {
				t.Errorf("link from the future: func %d pc %d site %d epoch %d > %d",
					tr.FuncID, tr.PC, i, l.Epoch, current)
			}
			if l.Epoch == current {
				repaired++
			}
		})
	})
	if repaired == 0 {
		t.Error("no stale link was repaired back to the current epoch")
	}
}
