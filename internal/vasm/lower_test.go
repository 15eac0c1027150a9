package vasm_test

import (
	"fmt"
	"slices"
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

const constSrc = `
function inc($x) { return $x + 1; }
function dec($x) { return $x - -5; }
function times($x) { return 3 * $x; }
function lt($x) { return $x < 10; }
function st($x) { $l = 3; $m = $l + $x; return $m; }
function nul($x) { return null; }
function big($x) { return $x + 3000000000; }
function dbl($x) { return $x + 1.5; }
echo inc(1), dec(1), times(1), lt(1), st(1), nul(1), big(1), dbl(1);
`

// TestLowerCarriesConstants: a constant an instruction can carry —
// an int add's, subtract's or multiply's imm32, the cell a local store
// or a return writes — is part of that instruction, with no LdImm in
// front of it; an int wider than 32 bits and a double keep their load,
// as on x86, and so does an int compare (DESIGN.md §6 "Constant
// operands"). Each unit then runs to the interpreter's answer.
func TestLowerCarriesConstants(t *testing.T) {
	for _, tc := range []struct {
		fn     string
		ldimm  bool
		x      int64
		result string
	}{
		{"inc", false, 41, "42"},
		{"dec", false, 37, "42"},
		{"times", false, 14, "42"},
		{"lt", true, 9, "true"},
		{"st", false, 39, "42"},
		{"nul", false, 1, "null"},
		{"big", true, 1, "3000000001"},
		{"dbl", true, 1, "2.5"},
	} {
		vu := lowerFor(t, constSrc, tc.fn, srcTypes{0: types.TInt})
		loads, carried := 0, 0
		for _, b := range vu.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == vasm.LdImm {
					loads++
				}
				for _, r := range []vasm.Reg{in.A, in.B} {
					if r.IsImm() {
						carried++
					}
				}
			}
		}
		if (loads > 0) != tc.ldimm || (carried == 0) != tc.ldimm {
			t.Errorf("%s: %d loads, %d carried constants; want a load: %v\n%s", tc.fn, loads, carried, tc.ldimm, vu)
		}
		allocate(t, vu)
		out, _ := run(t, vu, runtime.Int(tc.x), runtime.Null(), runtime.Null())
		if got := out.Value.DebugString(); got != tc.result {
			t.Errorf("%s(%d) = %s, want %s\n%s", tc.fn, tc.x, got, tc.result, vu)
		}
	}
}

// TestLowerLoadsOnlyForRegisterReads: a constant some instruction must
// read from a register is loaded once, where it is defined, and the
// readers that can carry it read that register, the shorter encoding;
// an edge into a join loads a constant straight into the parameter.
func TestLowerLoadsOnlyForRegisterReads(t *testing.T) {
	u := hhir.NewUnit(&hhbc.Func{Name: "f"})
	entry, left, right, join := u.NewBlock(0), u.NewBlock(1), u.NewBlock(2), u.NewBlock(3)
	u.Entry = entry
	p := u.NewTmp(types.TInt)
	p.DefBlock = join
	join.Params = []*hhir.SSATmp{p}

	x, seven, two := u.NewTmp(types.TInt), u.NewTmp(types.TInt), u.NewTmp(types.TInt)
	sum, cond := u.NewTmp(types.TInt), u.NewTmp(types.TBool)
	hb(entry,
		&hhir.Instr{Op: hhir.LdLoc, Dst: x, I64: 0},
		&hhir.Instr{Op: hhir.DefConstInt, Dst: seven, I64: 7},
		&hhir.Instr{Op: hhir.DefConstInt, Dst: two, I64: 2},
		// The compare reads 7 from a register, so the add reads it there too.
		&hhir.Instr{Op: hhir.CmpInt, Dst: cond, I64: int64(runtime.CondLT), Args: []*hhir.SSATmp{x, seven}},
		&hhir.Instr{Op: hhir.AddInt, Dst: sum, Args: []*hhir.SSATmp{x, seven}},
		&hhir.Instr{Op: hhir.Branch, Args: []*hhir.SSATmp{cond}, Taken: left, Next: right})
	hb(left, &hhir.Instr{Op: hhir.Jmp, Next: join, NextArgs: []*hhir.SSATmp{two}})
	hb(right, &hhir.Instr{Op: hhir.Jmp, Next: join, NextArgs: []*hhir.SSATmp{sum}})
	out := u.NewTmp(types.TInt)
	hb(join,
		&hhir.Instr{Op: hhir.MulInt, Dst: out, Args: []*hhir.SSATmp{p, two}},
		&hhir.Instr{Op: hhir.Ret, Args: []*hhir.SSATmp{out}})
	u.RecomputePreds()

	vu, err := vasm.Lower(u)
	if err != nil {
		t.Fatal(err)
	}
	var loads []string
	for _, b := range vu.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == vasm.LdImm {
				loads = append(loads, fmt.Sprintf("B%d %v", b.ID, vu.Imms[in.I64].I))
			}
			if in := &b.Instrs[i]; in.Op == vasm.AddI && in.B.IsImm() {
				t.Errorf("the add carries 7, which a register holds anyway\n%s", vu)
			}
		}
	}
	// 7 at its definition for the compare; 2 on the left edge, into the
	// join's parameter. The multiply carries 2 itself.
	if want := []string{"B0 7", "B1 2"}; !slices.Equal(loads, want) {
		t.Errorf("loads %v, want %v\n%s", loads, want, vu)
	}
	allocate(t, vu)
	for x, want := range map[int64]string{3: "4", 9: "32"} {
		if got, _ := run(t, vu, runtime.Int(x)); got.Value.DebugString() != want {
			t.Errorf("f(%d) = %s, want %s\n%s", x, got.Value.DebugString(), want, vu)
		}
	}
}
