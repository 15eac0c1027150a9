package vasm_test

import (
	"testing"

	"repro/internal/vasm"
)

func block(instrs ...vasm.Instr) *vasm.Unit {
	return &vasm.Unit{Blocks: []*vasm.Block{{ID: 0, Instrs: instrs}}}
}

func ops(u *vasm.Unit) []vasm.Op {
	var out []vasm.Op
	for _, b := range u.Blocks {
		for i := range b.Instrs {
			out = append(out, b.Instrs[i].Op)
		}
	}
	return out
}

func eqOps(got, want []vasm.Op) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestFusePatterns: each fusion pattern collapses to its
// superinstruction with the component payloads preserved.
func TestFusePatterns(t *testing.T) {
	inv := vasm.InvalidReg
	u := block(
		vasm.Instr{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 3},
		vasm.Instr{Op: vasm.GuardKind, D: inv, A: 1, B: inv, Target1: 7, Target2: 5},
		vasm.Instr{Op: vasm.AddI, D: 3, A: 1, B: vasm.ImmReg(0)},
		vasm.Instr{Op: vasm.CmpI, D: 4, A: 3, B: 1, I64: 2},
		vasm.Instr{Op: vasm.Jcc, D: inv, A: 4, B: inv, I64: 0x100, Target1: 1, Target2: 2},
	)
	if n := vasm.Fuse(u); n != 2 {
		t.Fatalf("eliminated %d instructions, want 2", n)
	}
	want := []vasm.Op{vasm.LdLocGK, vasm.AddI, vasm.CmpIJcc}
	if got := ops(u); !eqOps(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	ins := u.Blocks[0].Instrs
	if ins[0].I64 != 3 || ins[0].Target1 != 7 || ins[0].Target2 != 5 {
		t.Errorf("LdLocGK lost payload: %+v", ins[0])
	}
	// An add of a constant carries it: there is no load to fuse.
	if ins[1].B != vasm.ImmReg(0) || ins[1].D != 3 {
		t.Errorf("AddI lost its constant: %+v", ins[1])
	}
	// CmpIJcc keeps the compare condition and Jcc's inversion bit.
	if ins[2].I64&0xff != 2 || ins[2].I64&0x100 == 0 || ins[2].Target1 != 1 || ins[2].Target2 != 2 {
		t.Errorf("CmpIJcc lost payload: %+v", ins[2])
	}
}

// TestFuseRefcountRuns: adjacent IncRef/DecRef runs collapse to one
// N-ary op per run; single ops stay unfused.
func TestFuseRefcountRuns(t *testing.T) {
	inv := vasm.InvalidReg
	u := block(
		vasm.Instr{Op: vasm.IncRef, D: inv, A: 1, B: inv},
		vasm.Instr{Op: vasm.IncRef, D: inv, A: 2, B: inv},
		vasm.Instr{Op: vasm.IncRef, D: inv, A: 3, B: inv},
		vasm.Instr{Op: vasm.DecRef, D: inv, A: 4, B: inv},
		vasm.Instr{Op: vasm.Nop, D: inv, A: inv, B: inv},
		vasm.Instr{Op: vasm.DecRef, D: inv, A: 5, B: inv},
		vasm.Instr{Op: vasm.DecRef, D: inv, A: 6, B: inv},
	)
	if n := vasm.Fuse(u); n != 3 {
		t.Fatalf("eliminated %d instructions, want 3", n)
	}
	want := []vasm.Op{vasm.IncRefN, vasm.DecRef, vasm.Nop, vasm.DecRefN}
	if got := ops(u); !eqOps(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	ins := u.Blocks[0].Instrs
	if len(ins[0].Args) != 3 || ins[0].Args[0] != 1 || ins[0].Args[2] != 3 {
		t.Errorf("IncRefN args: %+v", ins[0].Args)
	}
	if len(ins[3].Args) != 2 || ins[3].Args[0] != 5 {
		t.Errorf("DecRefN args: %+v", ins[3].Args)
	}
}

// TestFuseRequiresDataflowAdjacency: pairs that are stream-adjacent
// but not dataflow-connected must not fuse, and fusion never crosses
// block boundaries.
func TestFuseRequiresDataflowAdjacency(t *testing.T) {
	inv := vasm.InvalidReg
	u := &vasm.Unit{Blocks: []*vasm.Block{
		{ID: 0, Instrs: []vasm.Instr{
			// GuardKind checks a different register than LdLoc wrote.
			{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0},
			{Op: vasm.GuardKind, D: inv, A: 2, B: inv},
			// CmpI's result is not what Jcc branches on.
			{Op: vasm.CmpI, D: 3, A: 1, B: 2, I64: 1},
			{Op: vasm.Jcc, D: inv, A: 4, B: inv, Target1: 1, Target2: 0},
		}},
		// Block boundary between CmpI and Jcc: no fusion window.
		{ID: 1, Instrs: []vasm.Instr{{Op: vasm.CmpI, D: 5, A: 1, B: 1, I64: 1}}},
		{ID: 2, Instrs: []vasm.Instr{{Op: vasm.Jcc, D: inv, A: 5, B: inv, Target1: 1, Target2: 0}}},
	}}
	if n := vasm.Fuse(u); n != 0 {
		t.Fatalf("eliminated %d instructions, want 0", n)
	}
}

// TestFusedOpsNeverSmashable: chaining smashes link slots in place,
// so no superinstruction may be a smash target.
func TestFusedOpsNeverSmashable(t *testing.T) {
	for _, op := range []vasm.Op{vasm.LdLocGK, vasm.CmpIJcc, vasm.CmpDJcc, vasm.IncRefN, vasm.DecRefN} {
		if op.Smashable() {
			t.Errorf("%s is smashable", op)
		}
	}
}
