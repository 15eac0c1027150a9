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
		if helperCost[h].base == 0 {
			t.Errorf("helper %s has no cost", h)
		}
		if h == vasm.HArrGetPackedMiss {
			continue
		}
		// Null operands make most bodies raise or panic; either way the
		// body was found.
		err := func() (err error) {
			defer func() { recover() }()
			act := &activation{fr: &interp.Frame{Fn: env.Unit.Funcs[0], Locals: make([]runtime.Value, 4)},
				vals: make([]runtime.Value, vasm.TotalMachineRegs)}
			code := &mcode.Code{Regs: []int32{0, 1, 2}, Consts: []runtime.Value{runtime.StrV(runtime.InternStr("x"))}}
			_, err = m.runHelper(code, act, h, 0, &mcode.Instr{N: 3, T1: -1, T2: 0})
			return err
		}()
		if err != nil && strings.Contains(err.Error(), "unknown helper") {
			t.Errorf("helper %s has no body in runHelper", h)
		}
	}
}

// TestConcatHelpersCostWhatTheBytecodesDo: both tiers price an
// n-operand concatenation by interp.ConcatCost, and an append to a
// local as a concatenation of one operand more.
func TestConcatHelpersCostWhatTheBytecodesDo(t *testing.T) {
	charge := func(h vasm.HelperID, args int) uint64 { return helperCost[h].base + helperCost[h].perArg*uint64(args) }
	for n := 2; n <= 9; n++ {
		if got, want := charge(vasm.HConcat, n), interp.ConcatCost(n); got != want {
			t.Errorf("concat of %d: helper costs %d, ConcatN %d", n, got, want)
		}
		// HConcatAppend's operands are the local and the n-1 appended.
		if got, want := charge(vasm.HConcatAppend, n), interp.ConcatCost(n); got != want {
			t.Errorf("append of %d to a local: helper costs %d, ConcatL %d", n-1, got, want)
		}
	}
	if interp.ConcatCost(2) != 24 || interp.ConcatCost(3) >= 2*interp.ConcatCost(2) {
		t.Errorf("ConcatCost(2) = %d, (3) = %d: a chain must cost less than the Concats it replaces",
			interp.ConcatCost(2), interp.ConcatCost(3))
	}
	for h := vasm.HNone + 1; h < vasm.HelperCount; h++ {
		if helperCost[h].perArg != 0 && h != vasm.HConcat && h != vasm.HConcatAppend {
			t.Errorf("helper %s charges per operand", h)
		}
	}
}
