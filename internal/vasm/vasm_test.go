package vasm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hhir"
	"repro/internal/interp"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

type srcTypes map[int]types.Type

func (s srcTypes) LocalType(slot int) types.Type {
	if t, ok := s[slot]; ok {
		return t
	}
	return types.TUninit
}
func (srcTypes) StackType(int) types.Type { return types.TCell }

func lowerFor(t *testing.T, src, fn string, locals srcTypes) *vasm.Unit {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := interp.NewEnv(unit, runtime.NewHeap(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := unit.FuncByName(fn)
	if !ok {
		t.Fatalf("no %s", fn)
	}
	blk := region.Select(unit, f, 0, 0, locals, region.ModeLive, 0)
	hu, err := hhir.Build(unit, env, region.NewDesc(blk), hhir.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hhir.Optimize(hu, hhir.AllPasses)
	vu, err := vasm.Lower(hu)
	if err != nil {
		t.Fatal(err)
	}
	return vu
}

const loopSrc = `
function hot($n) {
  $a = 0; $b = 1; $c = 2; $d = 3; $e = 4; $f = 5; $g = 6;
  for ($i = 0; $i < $n; $i++) {
    $a = $a + $b; $b = $b + $c; $c = $c + $d;
    $d = $d + $e; $e = $e + $f; $f = $f + $g; $g = $g + $i;
  }
  return $a + $b + $c + $d + $e + $f + $g;
}
echo hot(10);
`

// TestAllocateAssignsPhysicalRegisters: after allocation every
// register operand is physical or a spill reference.
func TestAllocateAssignsPhysicalRegisters(t *testing.T) {
	vu := lowerFor(t, loopSrc, "hot", srcTypes{0: types.TInt})
	vasm.Layout(vu, vasm.DefaultLayout)
	vasm.Allocate(vu)
	check := func(r vasm.Reg) {
		if r == vasm.InvalidReg {
			return
		}
		if r >= vasm.SpillRegBase {
			if int(r-vasm.SpillRegBase) >= vu.NumSpills {
				t.Fatalf("spill ref %d out of range (%d spills)", r-vasm.SpillRegBase, vu.NumSpills)
			}
			return
		}
		if int(r) >= vasm.TotalMachineRegs {
			t.Fatalf("virtual register r%d survived allocation", r)
		}
	}
	for _, b := range vu.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			check(in.D)
			check(in.A)
			check(in.B)
			for _, a := range in.Args {
				check(a)
			}
		}
	}
}

// TestLayoutKeepsEntryFirst: the entry block must lead the layout (the
// machine begins execution there) or at minimum stay a chain head.
func TestLayoutKeepsEntryFirst(t *testing.T) {
	vu := lowerFor(t, loopSrc, "hot", srcTypes{0: types.TInt})
	vasm.Layout(vu, vasm.DefaultLayout)
	if len(vu.Layout) == 0 {
		t.Fatal("no layout")
	}
	pos := -1
	for i, b := range vu.Layout {
		if b == 0 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("entry block missing from layout")
	}
}

// TestHotColdSplitting: stub blocks land at the layout tail.
func TestHotColdSplitting(t *testing.T) {
	vu := lowerFor(t, loopSrc, "hot", srcTypes{0: types.TInt})
	vasm.Layout(vu, vasm.DefaultLayout)
	seenStub := false
	for _, bi := range vu.Layout {
		isStub := vu.Blocks[bi].Hint == vasm.HintStub
		if seenStub && !isStub {
			t.Fatal("non-stub block after the frozen area began")
		}
		if isStub {
			seenStub = true
		}
	}
}

// TestJumpOptimizationMarksFallthroughs: at least one Jmp to the next
// block should be converted to a zero-size fallthrough in a multi-
// block unit.
func TestJumpOptimizationMarksFallthroughs(t *testing.T) {
	vu := lowerFor(t, loopSrc, "hot", srcTypes{0: types.TInt})
	vasm.Layout(vu, vasm.DefaultLayout)
	posOf := map[int]int{}
	for pos, b := range vu.Layout {
		posOf[b] = pos
	}
	for pos, bi := range vu.Layout {
		b := vu.Blocks[bi]
		if len(b.Instrs) == 0 {
			continue
		}
		last := b.Instrs[len(b.Instrs)-1]
		if last.Op == vasm.Jmp && posOf[last.Target1] == pos+1 && last.I64&1 == 0 {
			t.Errorf("B%d: jump to adjacent B%d not marked fallthrough", bi, last.Target1)
		}
	}
}

func TestHelperPacking(t *testing.T) {
	v := vasm.PackHelper(vasm.HArrSetLocal, 1234)
	h, extra := vasm.UnpackHelper(v)
	if h != vasm.HArrSetLocal || extra != 1234 {
		t.Errorf("helper roundtrip: %v %d", h, extra)
	}
	iv := vasm.PackIterSlot(3, 17)
	it, slot := vasm.UnpackIterSlot(iv)
	if it != 3 || slot != 17 {
		t.Errorf("iter roundtrip: %d %d", it, slot)
	}
}

// TestDenseSwitchLowersToJumpTable: the dense-int Switch becomes a
// JmpTable at the Vasm level, not a compare cascade.
func TestDenseSwitchLowersToJumpTable(t *testing.T) {
	vu := lowerFor(t, `
function pick($n) {
  switch ($n) { case 1: return 10; case 2: return 20; case 3: return 30; default: return 0; }
}
echo pick(2);`, "pick", srcTypes{0: types.TInt})
	found := false
	for _, b := range vu.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == vasm.JmpTable {
				found = true
			}
		}
	}
	if !found {
		t.Error("dense switch did not lower to a jump table")
	}
	if len(vu.Tables) != 1 || len(vu.Tables[0].Targets) != 3 {
		t.Errorf("jump table shape wrong: %+v", vu.Tables)
	}
}

// TestVerifyParamCarriesParamIdentity: the hint-check helper names the
// function and parameter it checks (the interpreter's error message
// needs both), decoded from the HHIR immediate without loss.
func TestVerifyParamCarriesParamIdentity(t *testing.T) {
	src := `
function first() { return 1; }
function hinted($a, int $x) { return $x; }
echo hinted(1, 2);
`
	vu := lowerFor(t, src, "hinted", srcTypes{0: types.TCell, 1: types.TCell})
	unit, _ := core.Compile(src, core.CompileOptions{})
	want, _ := unit.FuncByName("hinted")
	found := false
	for _, b := range vu.Blocks {
		for _, in := range b.Instrs {
			if in.Op != vasm.Helper {
				continue
			}
			if h, extra := vasm.UnpackHelper(in.I64); h == vasm.HVerifyParam {
				found = true
				fn, idx, slot := vasm.UnpackVerifyParam(extra)
				if fn != want.ID || idx != 1 || slot != 1 {
					t.Errorf("VerifyParam names func %d param %d slot %d, want %d/1/1", fn, idx, slot, want.ID)
				}
			}
		}
	}
	if !found {
		t.Fatal("no VerifyParam helper lowered")
	}
	if fn, idx, slot := vasm.UnpackVerifyParam(vasm.PackVerifyParam(70000, 200, 60000)); fn != 70000 || idx != 200 || slot != 60000 {
		t.Errorf("roundtrip at field limits: %d %d %d", fn, idx, slot)
	}
}
