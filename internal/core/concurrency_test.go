package core_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/runtime"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestConcurrentWorkersAcrossOptimize hammers one shared JIT with
// several worker VMs straddling the profiling → global-retranslation
// transition: workers race to mint profiling translations, the
// background compiler publishes the optimized index mid-traffic, and
// every request's output must stay identical to the interpreter's.
// Run under -race this exercises the RCU index publication, the
// single-flight dedup, and the atomic stats counters.
func TestConcurrentWorkersAcrossOptimize(t *testing.T) {
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
	const rounds = 30
	ws := make([]*vm.VM, workers)
	ws[0] = eng.VM
	for i := 1; i < workers; i++ {
		ws[i] = eng.NewWorker(io.Discard)
	}

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
						errCh <- fmt.Errorf("endpoint %s: output diverged under concurrency:\n got %q\nwant %q",
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
		t.Fatal(err)
	}

	// The trigger fired during traffic; the background compiler may
	// still be publishing — wait for it, then check the publish.
	if !awaitOptimized(eng.VM.JIT) {
		t.Fatal("optimized index never published")
	}
	st := eng.Stats()
	if st.OptimizeRuns != 1 {
		t.Errorf("global retranslation ran %d times, want exactly 1", st.OptimizeRuns)
	}
	if st.OptimizedTranslations == 0 {
		t.Error("no optimized translations published")
	}
	if st.ProfilingTranslations == 0 {
		t.Error("no profiling translations were minted before the trigger")
	}
}

// TestForegroundOptimizeChargesTrippingWorker: without
// BackgroundCompile the global retranslation runs inline on whichever
// worker's function entry crosses ProfileTrigger, and its compile
// cycles belong on that worker's meter. Here three workers serve the
// site and trip the trigger while the primary VM is in the middle of
// one long request; charging the primary's meter from another
// worker's goroutine is a data race (-race) and credits the compile to
// a request that did not ask for it.
func TestForegroundOptimizeChargesTrippingWorker(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src+`
function spin($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i % 7; } return $s; }
`, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := interpRefs(t, refEng, eps)
	spin, _ := unit.FuncByName("spin")

	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 200
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		const n = 400_000
		want := int64(0)
		for i := int64(0); i < n; i++ {
			want += i % 7
		}
		v, err := eng.VM.CallFunc(spin, nil, []runtime.Value{runtime.Int(n)})
		if err == nil && v.AsInt() != want {
			err = fmt.Errorf("spin(%d) = %s, want %d", n, v.DebugString(), want)
		}
		errs[0] = err
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := eng.NewWorker(io.Discard)
			for r := 0; r < 6 && errs[i] == nil; r++ {
				for _, ep := range eps {
					fn, _ := unit.FuncByName(workload.EndpointFunc(ep.Name))
					var sb strings.Builder
					v.SetOut(&sb)
					val, err := v.CallFunc(fn, nil, nil)
					v.Heap.DecRef(val)
					if err == nil && sb.String() != ref[ep.Name] {
						err = fmt.Errorf("output diverged:\n got %q\nwant %q", sb.String(), ref[ep.Name])
					}
					if err != nil {
						errs[i] = fmt.Errorf("worker %d, endpoint %s: %w", i, ep.Name, err)
						break
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.OptimizeRuns != 1 || st.OptimizedTranslations == 0 {
		t.Fatalf("the workers' traffic did not fire the inline retranslation: %d runs, %d optimized translations",
			st.OptimizeRuns, st.OptimizedTranslations)
	}
}
