package machine_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// staticGuard loads local 0 and guards it against StaticStr: it returns
// 1 when the guard holds and 0 from the guard's fail block. Fused, the
// load and the guard become one LdLocGK.
func staticGuard() *vasm.Unit {
	return &vasm.Unit{Imms: ints(1, 0), GuardTypes: []types.Type{types.TStaticStr}, Blocks: []*vasm.Block{
		{ID: 0, Instrs: []vasm.Instr{
			{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0, Target1: -1, Target2: -1},
			{Op: vasm.GuardKind, D: inv, A: 1, B: inv, Target1: 1, Target2: 0},
			{Op: vasm.LdImm, D: 2, A: inv, B: inv, I64: 0, Target1: -1, Target2: -1},
			{Op: vasm.Ret, D: inv, A: 2, B: inv, Target1: -1, Target2: -1},
		}},
		{ID: 1, Instrs: []vasm.Instr{
			{Op: vasm.LdImm, D: 2, A: inv, B: inv, I64: 1, Target1: -1, Target2: -1},
			{Op: vasm.Ret, D: inv, A: 2, B: inv, Target1: -1, Target2: -1},
		}},
	}}
}

// TestStaticStrGuardTellsLiteralsApart: a GuardKind, and the LdLocGK
// it fuses into, of StaticStr passes a literal and fails a counted
// string — the answer ChainMatch gives for the same type and value, so
// a chained tracelet's entry guard and its in-code guard agree.
func TestStaticStrGuardTellsLiteralsApart(t *testing.T) {
	for _, c := range []struct {
		name string
		v    runtime.Value
		want int64
	}{
		{"literal", runtime.StrV(runtime.InternStr("lit")), 1},
		{"counted", runtime.NewHeap().NewStr("lit"), 0},
	} {
		for _, v := range variants {
			_, code, out := exec(t, v, staticGuard, 0x1000, c.v)
			if out.Kind != machine.Returned || out.Value != runtime.Int(c.want) {
				t.Errorf("%s, %s dispatch: outcome %+v, want Returned %d", c.name, v.name, out, c.want)
			}
			if op := code.Instrs[0].Op; v.fuse != (op == vasm.LdLocGK) {
				t.Errorf("%s dispatch runs %s first", v.name, op)
			}
		}
	}
}
