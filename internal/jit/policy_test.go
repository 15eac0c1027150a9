package jit

import (
	"io"
	"testing"

	"repro/internal/emitter"
	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/parser"
	"repro/internal/runtime"
)

// TestMintPolicyOSRAgreesWithDispatcher walks the mint policy's whole
// input space on a real JIT and checks two things per point: the OSR
// check's answer (WantsTranslation) equals what the dispatcher then
// does (Lookup mints or does not) — an OSR bounce the dispatcher
// refuses costs a Lookup and an interpreter re-entry per loop
// iteration — and both equal the table in DESIGN.md §9.
func TestMintPolicyOSRAgreesWithDispatcher(t *testing.T) {
	prog, err := parser.Parse(`function f($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }`)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := emitter.Emit(prog)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := unit.FuncByName("f")

	phases := []struct {
		name               string
		claimed, optimized bool
	}{{"profiling", false, false}, {"claimed", true, false}, {"optimized", true, true}}
	bools := []bool{false, true}
	for _, mode := range []Mode{ModeInterp, ModeTracelet, ModeProfiling, ModeRegion} {
		for _, phase := range phases {
			for _, seen := range []uint64{0, liveThreshold} {
				for _, chainFull := range bools {
					for _, quarantined := range bools {
						for _, cacheFull := range bools {
							for degrade := DegradeNone; degrade <= DegradeInterpOnly; degrade++ {
								kind := ModeTracelet
								switch {
								case mode == ModeInterp, mode == ModeRegion && phase.claimed && !phase.optimized:
									kind = ModeInterp
								case mode == ModeProfiling, mode == ModeRegion && !phase.claimed:
									kind = ModeProfiling
								}
								want := kind != ModeInterp && !chainFull && !quarantined && !cacheFull &&
									degrade < DegradeNoMint && (kind != ModeTracelet || degrade < DegradeNoLiveMint)

								j, fr := policyJIT(t, unit, fn, mode)
								key := transKey{fn.ID, fr.PC}
								j.optStarted.Store(phase.claimed)
								j.optimized.Store(phase.optimized)
								j.entryCount[key] = seen
								if chainFull {
									// Published translations no frame matches.
									chain := make([]*Translation, maxLiveChain)
									for i := range chain {
										chain[i] = &Translation{FuncID: fn.ID, PC: fr.PC, Kind: ModeTracelet,
											EntryDepth: 99, Code: &mcode.Code{}}
									}
									idx := transIndex{key: chain}
									j.trans.Store(&idx)
								}
								if quarantined {
									j.quarantine[key] = &quarantineEntry{permanent: true}
								}
								j.cacheFull.Store(cacheFull)
								j.degrade.Store(degrade)

								osr := j.WantsTranslation(fn, fr)
								minted := j.Lookup(fn, fr, &machine.Meter{}, false) != nil
								if osr != minted || minted != want {
									t.Errorf("mode=%s phase=%s seen=%d chainFull=%v quarantined=%v cacheFull=%v degrade=%d: "+
										"OSR check says %v, dispatcher minted %v, policy table says %v",
										mode, phase.name, seen, chainFull, quarantined, cacheFull, degrade, osr, minted, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBindRequestIsASecondObservation: at an address the dispatcher
// has never seen, a plain Lookup waits for liveThreshold visits and a
// bind request's mints — in the live tier only; a profiling translation
// never waited.
func TestBindRequestIsASecondObservation(t *testing.T) {
	prog, err := parser.Parse(`function f($n) { return $n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := emitter.Emit(prog)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := unit.FuncByName("f")
	for _, bound := range []bool{false, true} {
		j, fr := policyJIT(t, unit, fn, ModeTracelet)
		if minted := j.Lookup(fn, fr, &machine.Meter{}, bound) != nil; minted != bound {
			t.Errorf("first visit, bound=%v: minted %v", bound, minted)
		}
		if j.Lookup(fn, fr, &machine.Meter{}, false) == nil {
			t.Errorf("second visit (first bound=%v) did not mint", bound)
		}
	}
}

// policyJIT builds a fresh JIT over unit and a frame at fn's entry.
func policyJIT(t *testing.T, unit *hhbc.Unit, fn *hhbc.Func, mode Mode) (*JIT, *interp.Frame) {
	t.Helper()
	env, err := interp.NewEnv(unit, runtime.NewHeap(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	meter := &machine.Meter{}
	env.Meter = meter
	cfg := DefaultConfig()
	cfg.Mode = mode
	return New(cfg, env, meter), env.TakeFrame(fn, nil, []runtime.Value{runtime.Int(3)})
}
