package core_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/workload"
)

// TestLeaseStressConcurrentMinting exercises the per-function
// translation leases under -race: four worker VMs race to mint
// translations of different functions in parallel while the
// background optimizer acquires writer leases for its batch — stealing
// them from queued minting workers — and republishes the index
// mid-traffic. Every request's output must still match the
// interpreter's.
func TestLeaseStressConcurrentMinting(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := interpRefs(t, refEng, eps)

	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 300 // fire the global trigger mid-run
	cfg.BackgroundCompile = true
	cfg.CompileWorkers = 4
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if err := serveConcurrently(eng, unit, eps, ref, 4, 40); err != nil {
		t.Fatalf("under lease contention: %v", err)
	}

	// Wait for the republish the trigger started.
	deadline := time.Now().Add(10 * time.Second)
	for !eng.VM.JIT.Optimized() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("optimized index never published")
	}
	st := eng.Stats()
	if st.OptimizeRuns != 1 {
		t.Errorf("global retranslation ran %d times, want exactly 1", st.OptimizeRuns)
	}
	if st.LeaseAcquires == 0 {
		t.Error("no lease acquisitions recorded; lease table not in use")
	}
	t.Logf("lease acquires=%d waits=%d steals=%d peak-parallel=%d",
		st.LeaseAcquires, st.LeaseWaits, st.LeaseSteals, st.PeakCompileParallelism)
}

// TestParallelOptimizePublishesIdenticalCode checks the determinism
// contract of the optimizer: however many workers the backend
// compiles fan over (0 and 1 both mean one), exactly the same
// translations are published — same code bytes, same addresses, same
// guest cycles — because placement is sequential in function-sorted
// order.
func TestParallelOptimizePublishesIdenticalCode(t *testing.T) {
	run := func(compileWorkers int) (jit.Stats, uint64) {
		src, eps := workload.Combined()
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := jit.DefaultConfig()
		cfg.ProfileTrigger = 300
		cfg.CompileWorkers = compileWorkers
		eng, err := core.NewEngine(unit, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			for _, ep := range eps {
				val, err := eng.Call(workload.EndpointFunc(ep.Name))
				if err != nil {
					t.Fatalf("endpoint %s: %v", ep.Name, err)
				}
				eng.Heap().DecRef(val)
			}
		}
		if !eng.VM.JIT.Optimized() {
			t.Fatal("optimized index never published")
		}
		return eng.Stats(), eng.Cycles()
	}

	want, wantCycles := run(0)
	for _, workers := range []int{1, 4} {
		got, gotCycles := run(workers)
		if got.OptimizedTranslations != want.OptimizedTranslations {
			t.Errorf("optimized translations differ: %d with 0 workers, %d with %d",
				want.OptimizedTranslations, got.OptimizedTranslations, workers)
		}
		if got.BytesOptimized != want.BytesOptimized {
			t.Errorf("optimized code bytes differ: %d with 0 workers, %d with %d",
				want.BytesOptimized, got.BytesOptimized, workers)
		}
		if gotCycles != wantCycles {
			t.Errorf("guest cycle totals differ: %d with 0 workers, %d with %d",
				wantCycles, gotCycles, workers)
		}
	}
}
