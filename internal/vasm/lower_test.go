package vasm_test

import (
	"testing"

	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// hb appends instructions to an HHIR block, wiring Block and Def.
func hb(b *hhir.Block, ins ...*hhir.Instr) {
	for _, in := range ins {
		in.Block = b
		if in.Dst != nil {
			in.Dst.Def = in
		}
		b.Instrs = append(b.Instrs, in)
	}
}

// TestLowerSharesRegistersAndSplitsGuardEdges: a retyped value lives in
// the register of the value it renames, and the copies a failing
// guard's edge needs run on that edge only. The loop head's parameter p
// is read after a guard that fails back to the head passing the local:
// copies hoisted above the guard would overwrite p on the path that
// stays.
func TestLowerSharesRegistersAndSplitsGuardEdges(t *testing.T) {
	u := hhir.NewUnit(&hhbc.Func{Name: "f"})
	entry, head := u.NewBlock(0), u.NewBlock(1)
	u.Entry = entry
	p := u.NewTmp(types.TInt)
	p.DefBlock = head
	head.Params = []*hhir.SSATmp{p}

	one := u.NewTmp(types.TInt)
	hb(entry,
		&hhir.Instr{Op: hhir.DefConstInt, Dst: one, I64: 1},
		&hhir.Instr{Op: hhir.Jmp, Next: head, NextArgs: []*hhir.SSATmp{one}})

	x, xInt, pInt := u.NewTmp(types.TInitCell), u.NewTmp(types.TInt), u.NewTmp(types.TInt)
	hb(head,
		&hhir.Instr{Op: hhir.LdLoc, Dst: x, I64: 0},
		&hhir.Instr{Op: hhir.CheckType, Dst: xInt, Args: []*hhir.SSATmp{x}, TypeParam: types.TInt,
			Taken: head, TakenArgs: []*hhir.SSATmp{x}},
		&hhir.Instr{Op: hhir.AssertType, Dst: pInt, Args: []*hhir.SSATmp{p}, TypeParam: types.TInt},
		&hhir.Instr{Op: hhir.Ret, Args: []*hhir.SSATmp{pInt}})
	u.RecomputePreds()

	vu, err := vasm.Lower(u)
	if err != nil {
		t.Fatal(err)
	}
	if vu.Alloc.Aliased != 2 {
		t.Errorf("%d values share a register, want the CheckType's and the AssertType's\n%s", vu.Alloc.Aliased, vu)
	}
	for _, in := range vu.Blocks[1].Instrs {
		if in.Op == vasm.Copy {
			t.Errorf("the loop head copies (%s): the guard's edge copies belong on the edge\n%s", &in, vu)
		}
	}
	if len(vu.Blocks) != 3 {
		t.Fatalf("%d blocks, want entry, head and the guard edge's own\n%s", len(vu.Blocks), vu)
	}
	allocate(t, vu)
	out, _ := run(t, vu, runtime.Int(7))
	if got := out.Value.DebugString(); got != "1" {
		t.Errorf("returned %s, want the head's parameter (1), not the local the guard passed on\n%s", got, vu)
	}
}
