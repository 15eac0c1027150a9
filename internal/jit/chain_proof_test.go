package jit_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/runtime"
)

// TestChainedProofsHoldOnTheSite: a chained bind transfer skips the
// target's guards that the source's end state proves. With the audit on,
// every skipped guard is checked against the live frame anyway; over
// the whole site, in the live-tracelet tier and in the region tier's
// live tracelets, none may fail, and some must have been skipped.
func TestChainedProofsHoldOnTheSite(t *testing.T) {
	for _, mode := range []jit.Mode{jit.ModeTracelet, jit.ModeRegion} {
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		eng, eps, err := perflab.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jit.AuditProofs(true)
		if err := perflab.Warm(eng, eps, 30, nil); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		checked, failed := jit.AuditProofs(false)
		t.Logf("%v: %d proven guards skipped, %d of them false", mode, checked, failed)
		if failed != 0 || checked == 0 {
			t.Errorf("%v: %d of %d skipped guards do not hold; want 0 of some", mode, failed, checked)
		}
	}
}

// TestChainedTransferRechecksUnprovenStaticGuard: a chained transfer
// into a tracelet that guards a static string must still check that
// guard when the source's end state does not prove it. In f, A tests $c
// and binds to the join, whose tracelet was selected while $s held a
// literal; A never reads $s. In h, A copies a string parameter it
// guards only as Str into $t, and the join's tracelet was first reached
// from the then-arm, which stores a literal in $t; A's link to the join
// is made while $s holds a literal. Once $s holds a computed string
// both transfers are refused (ChainMismatches rises), no skipped guard
// fails the audit, and the answers stay the interpreter's.
func TestChainedTransferRechecksUnprovenStaticGuard(t *testing.T) {
	const src = `function f($s, $c) { if ($c) { $c = 0; } return $s . $c; }
function h($s, $c) { $t = $s; if ($c) { $t = "lit"; } return $t . $c; }`
	phases := []struct {
		fn      string
		lit     bool
		c       int // -1: alternate 0 and 1
		refused bool
	}{
		{"f", true, -1, false}, {"f", false, -1, true},
		{"h", false, 1, false}, {"h", true, 0, false}, {"h", false, 0, true},
	}
	run := func(mode jit.Mode) (out string, mismatches []uint64) {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		eng, err := core.NewEngine(unit, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		jit.AuditProofs(true)
		for _, p := range phases {
			for i := 0; i < 8; i++ {
				s := runtime.StrV(runtime.InternStr("lit"))
				if !p.lit {
					s = eng.Heap().NewStr(fmt.Sprint("computed", i))
				}
				c := p.c
				if c < 0 {
					c = i % 2
				}
				v, err := eng.Call(p.fn, s, runtime.Int(int64(c)))
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				out += v.AsStr().Data + ","
			}
			mismatches = append(mismatches, eng.Stats().ChainMismatches)
		}
		if _, failed := jit.AuditProofs(false); failed != 0 {
			t.Errorf("%v: %d skipped guards do not hold", mode, failed)
		}
		return out, mismatches
	}
	want, _ := run(jit.ModeInterp)
	got, mismatches := run(jit.ModeTracelet)
	if got != want {
		t.Errorf("tracelet: %s\nwant %s", got, want)
	}
	for i, p := range phases {
		if i > 0 && p.refused && mismatches[i] <= mismatches[i-1] {
			t.Errorf("phase %d (%s, computed strings): chain mismatches stay at %d; want a rise",
				i, p.fn, mismatches[i])
		}
	}
}
