package core_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/workload"
)

// TestWriteLeaseUnderConcurrentMinting runs four worker VMs over one
// shared JIT, staggered across the endpoints so they miss on different
// functions at once and on the same addresses in turn: in tracelet
// mode, in profiling mode, and in region mode with the background
// compiler publishing the optimized index mid-traffic. Every request's
// output must match the interpreter's, region mode must optimize
// exactly once, and the write lease's re-check must keep workers that
// missed on one address together from minting the same translation
// twice: no two minted translations share (func, pc, kind, entry
// depth, preconditions).
//
// Optimized regions are not minted but published as one batch, and
// relaxation can widen two regions at one entry to the same guards;
// they appear when several workers profiled at once. The global
// retranslation must publish only the first, the one the dispatcher
// takes: no optimized region may sit behind an equal one.
func TestWriteLeaseUnderConcurrentMinting(t *testing.T) {
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

	for _, mode := range []jit.Mode{jit.ModeTracelet, jit.ModeProfiling, jit.ModeRegion} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := jit.DefaultConfig()
			cfg.Mode = mode
			rounds := 4
			if mode == jit.ModeRegion {
				cfg.ProfileTrigger = 300 // fire the global trigger mid-run
				cfg.BackgroundCompile = true
				rounds = 40 // and serve live minting after the publish
			}
			eng, err := core.NewEngine(unit, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := serveConcurrently(eng, unit, eps, ref, 4, rounds); err != nil {
				t.Fatalf("under concurrent minting: %v", err)
			}

			if mode == jit.ModeRegion {
				deadline := time.Now().Add(10 * time.Second)
				for !eng.VM.JIT.Optimized() && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if !eng.VM.JIT.Optimized() {
					t.Fatal("optimized index never published")
				}
				if n := eng.Stats().OptimizeRuns; n != 1 {
					t.Errorf("global retranslation ran %d times, want exactly 1", n)
				}
			}

			seen := map[string]bool{}
			minted, dups, deadRegions := 0, 0, 0
			eng.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
				key := fmt.Sprintf("%d:%d:%v:%d:%v", tr.FuncID, tr.PC, tr.Kind, tr.EntryDepth, tr.Preconds)
				switch {
				case tr.Kind == jit.ModeRegion:
					if seen[key] {
						deadRegions++
					}
				case seen[key]:
					dups++
					t.Errorf("translation minted twice: %s", key)
				default:
					minted++
				}
				seen[key] = true
			})
			if minted == 0 {
				t.Fatal("no translations minted")
			}
			t.Logf("%d translations minted, %d minted twice; %d optimized regions behind an equal one",
				minted, dups, deadRegions)
			if deadRegions != 0 {
				t.Errorf("%d optimized regions published behind an equal one, never to be entered", deadRegions)
			}
		})
	}
}
