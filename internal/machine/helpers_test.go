package machine

import (
	"strings"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/vasm"
)

// TestEveryHelperHasCostAndBody: a helper id the lowering can name has
// a cycle cost and a case in runHelper (vasm's table test holds it to a
// name). HArrGetPackedMiss is a
// cost only: ArrGetPkI charges it inline and never calls out.
func TestEveryHelperHasCostAndBody(t *testing.T) {
	env := &interp.Env{Unit: &hhbc.Unit{Funcs: []*hhbc.Func{{}}}, Heap: runtime.NewHeap()}
	m := New(env, &Meter{}, nil, mcode.NewCache(0))
	for h := vasm.HNone + 1; h < vasm.HelperCount; h++ {
		if helperCost[h] == 0 {
			t.Errorf("helper %s has no cost", h)
		}
		if h == vasm.HArrGetPackedMiss {
			continue
		}
		// Null operands make most bodies raise or panic; either way the
		// body was found.
		err := func() (err error) {
			defer func() { recover() }()
			act := &activation{fr: &interp.Frame{Fn: env.Unit.Funcs[0], Locals: make([]runtime.Value, 4)}}
			_, err = m.runHelper(act, h, 0, &vasm.Instr{Args: []vasm.Reg{0, 1, 2}})
			return err
		}()
		if err != nil && strings.Contains(err.Error(), "unknown helper") {
			t.Errorf("helper %s has no body in runHelper", h)
		}
	}
}
