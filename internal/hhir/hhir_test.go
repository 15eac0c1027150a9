package hhir_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/interp"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
)

type fixedSource struct{ locals map[int]types.Type }

func (s fixedSource) LocalType(slot int) types.Type {
	if t, ok := s.locals[slot]; ok {
		return t
	}
	return types.TUninit
}
func (s fixedSource) StackType(int) types.Type               { return types.TCell }
func (fixedSource) PropReadType(int, int, string) types.Type { return types.TInitCell }

// buildFor compiles src and lowers a live region of fn (entry) with
// the given local types.
func buildFor(t *testing.T, src, fn string, locals map[int]types.Type, passes hhir.PassConfig) *hhir.Unit {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{SkipHHBBC: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := interp.NewEnv(unit, runtime.NewHeap(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := unit.FuncByName(fn)
	if !ok {
		t.Fatalf("no function %s", fn)
	}
	blk := region.Select(unit, f, 0, 0, fixedSource{locals}, region.ModeLive, 0)
	desc := region.NewDesc(blk)
	hu, err := hhir.Build(unit, env, desc, hhir.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hhir.Optimize(hu, passes)
	return hu
}

func countOps(u *hhir.Unit, op hhir.Opcode) int {
	n := 0
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// TestRCEEliminatesCountPattern reproduces the paper's Figure 6: the
// IncRef/DecRef pair around CountArray must be eliminated by RCE.
func TestRCEEliminatesCountPattern(t *testing.T) {
	src := `function f($arr) { $size = count($arr); return $size; } echo f([1]);`
	locals := map[int]types.Type{0: types.ArrOfKind(types.ArrayPacked)}

	without := buildFor(t, src, "f", locals, hhir.PassConfig{Simplify: true, DCE: true})
	with := buildFor(t, src, "f", locals, hhir.AllPasses)

	if countOps(without, hhir.IncRef) == 0 {
		t.Fatal("expected an IncRef before RCE (the CGetL of $arr)")
	}
	if got, had := countOps(with, hhir.IncRef), countOps(without, hhir.IncRef); got >= had {
		t.Errorf("RCE eliminated nothing: %d -> %d IncRefs", had, got)
	}
	if countOps(with, hhir.CountArray) != 1 {
		t.Error("count() was not specialized to CountArray")
	}
}

// TestRCEKeepsObservedPairs: an IncRef that a call can observe must
// not be eliminated.
func TestRCEKeepsObservedPairs(t *testing.T) {
	src := `function g($arr) { other($arr); return count($arr); }
function other($a) { return 0; }
echo g([1]);`
	locals := map[int]types.Type{0: types.ArrOfKind(types.ArrayPacked)}
	u := buildFor(t, src, "g", locals, hhir.AllPasses)
	// The IncRef feeding the call argument must survive (the callee
	// consumes the reference).
	if countOps(u, hhir.IncRef) == 0 {
		t.Error("RCE removed the call argument's IncRef")
	}
}

// TestRCEKeepsIncRefBeforeConsumingBinop: the generic binary helper
// releases its operands, so the IncRef of `$a` in `$a = $a + 1`-style
// code (operand loaded from the local the result overwrites) must not
// pair with the DecRef of the overwritten local across the helper — if
// the helper then raised, the frame would release the local's
// reference a second time.
func TestRCEKeepsIncRefBeforeConsumingBinop(t *testing.T) {
	src := `function f($a) { $a = $a + 1; return $a; } echo f("s");`
	u := buildFor(t, src, "f", map[int]types.Type{0: types.TStr}, hhir.AllPasses)
	var owned, seen bool
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == hhir.BinopGeneric:
				seen = true
				if !owned {
					t.Errorf("RCE sank the operand's IncRef across the helper that consumes it:\n%s", u)
				}
			case in.Op == hhir.IncRef && !seen:
				owned = true
			}
		}
	}
	if !seen {
		t.Fatalf("Str + Int should lower to the generic helper:\n%s", u)
	}
}

// TestConcatAppendLowering: `$s .= e…` is one ConcatAppend between the
// (forwarded) load of the local and the store of the result — no
// ConcatStr, no reference taken on the local's value, none released.
func TestConcatAppendLowering(t *testing.T) {
	src := `function f($s, $n) { $s .= "a" . $n; $s .= "b"; return $s; } echo f("s", 1);`
	u := buildFor(t, src, "f", map[int]types.Type{0: types.TStr, 1: types.TInt}, hhir.AllPasses)
	if countOps(u, hhir.ConcatAppend) != 2 || countOps(u, hhir.ConcatStr) != 0 {
		t.Fatalf("want two ConcatAppend and no ConcatStr:\n%s", u)
	}
	if countOps(u, hhir.LdLoc) != 2 { // $s once (the second append takes the first's result), $n
		t.Errorf("the second append reloads its local:\n%s", u)
	}
	var first *hhir.Instr
	for _, in := range u.Blocks[0].Instrs {
		switch in.Op {
		case hhir.ConcatAppend:
			if first == nil {
				first = in
				if len(in.Args) != 3 || in.Args[0].Def.Op != hhir.LdLoc {
					t.Errorf("first append's operands: %v", in)
				}
			} else if in.Args[0] != first.Dst {
				t.Errorf("second append does not extend the first's result: %v", in)
			}
		case hhir.DecRef:
			if in.Args[0].Def.Op != hhir.DefConstStr { // a literal operand's is a no-op at run time
				t.Errorf("%v: the append consumed the local's reference, and $n is uncounted", in)
			}
		}
	}
}

// TestRCEKeepsIncRefBeforeAppend: in `$s . ($s .= $n)` the left operand
// shares the local's reference unless its IncRef executes; RCE would
// pair that IncRef with the DecRef after the concatenation, and the
// append between them would then find a count of 1 and write into the
// string the left operand still reads. ConcatAppend's fCOWStr forbids it.
func TestRCEKeepsIncRefBeforeAppend(t *testing.T) {
	src := `function f($s, $n) { return $s . "/" . ($s .= $n); } echo f("s", 1);`
	u := buildFor(t, src, "f", map[int]types.Type{0: types.TStr, 1: types.TInt}, hhir.AllPasses)
	owned := false
	for _, in := range u.Blocks[0].Instrs {
		switch in.Op {
		case hhir.IncRef:
			owned = true
		case hhir.ConcatAppend:
			if !owned {
				t.Errorf("RCE sank the alias's IncRef across the append:\n%s", u)
			}
			return
		}
	}
	t.Fatalf("no ConcatAppend:\n%s", u)
}

func TestConstantFolding(t *testing.T) {
	src := `function h() { return 2 * 3 + 4; } echo h();`
	// Disable the AST folder so the JIT-level folding is what's
	// under test.
	unit, err := core.Compile(src, core.CompileOptions{SkipASTOpt: true, SkipHHBBC: true})
	if err != nil {
		t.Fatal(err)
	}
	env, _ := interp.NewEnv(unit, runtime.NewHeap(), nil)
	f, _ := unit.FuncByName("h")
	blk := region.Select(unit, f, 0, 0, fixedSource{nil}, region.ModeLive, 0)
	hu, err := hhir.Build(unit, env, region.NewDesc(blk), hhir.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hhir.Optimize(hu, hhir.AllPasses)
	if n := countOps(hu, hhir.AddInt) + countOps(hu, hhir.MulInt); n != 0 {
		t.Errorf("constant arithmetic not folded (%d ops left):\n%s", n, hu)
	}
}

func TestLoadElimRemovesRedundantLoads(t *testing.T) {
	src := `function k($x) { $y = $x + 1; $z = $x + 2; return $y + $z; } echo k(1);`
	locals := map[int]types.Type{0: types.TInt}
	u := buildFor(t, src, "k", locals, hhir.AllPasses)
	// $x is loaded once; later reads forward the first load. Locals
	// $y/$z forward their stores entirely.
	loads := countOps(u, hhir.LdLoc)
	if loads > 1 {
		t.Errorf("load elimination left %d LdLocs:\n%s", loads, u)
	}
}

func TestGVNDeduplicates(t *testing.T) {
	src := `function m($x) { return ($x * 3) + ($x * 3); } echo m(2);`
	locals := map[int]types.Type{0: types.TInt}
	without := buildFor(t, src, "m", locals, hhir.PassConfig{Simplify: true, DCE: true, LoadElim: true})
	with := buildFor(t, src, "m", locals, hhir.AllPasses)
	if countOps(with, hhir.MulInt) >= countOps(without, hhir.MulInt) {
		t.Errorf("GVN did not deduplicate: %d vs %d MulInts",
			countOps(with, hhir.MulInt), countOps(without, hhir.MulInt))
	}
}

func TestTypeSpecializedArith(t *testing.T) {
	src := `function a($x, $y) { return $x + $y; } echo a(1, 2);`
	intCase := buildFor(t, src, "a",
		map[int]types.Type{0: types.TInt, 1: types.TInt}, hhir.AllPasses)
	if countOps(intCase, hhir.AddInt) != 1 || countOps(intCase, hhir.BinopGeneric) != 0 {
		t.Errorf("int+int not specialized:\n%s", intCase)
	}
	dblCase := buildFor(t, src, "a",
		map[int]types.Type{0: types.TDbl, 1: types.TInt}, hhir.AllPasses)
	if countOps(dblCase, hhir.AddDbl) != 1 {
		t.Errorf("dbl+int not specialized to AddDbl:\n%s", dblCase)
	}
}

func TestGuardsBecomeAssertsAtEntry(t *testing.T) {
	// Entry preconditions are dispatcher-checked: the translation body
	// must not re-check them.
	src := `function n($x) { return $x + 1; } echo n(1);`
	u := buildFor(t, src, "n", map[int]types.Type{0: types.TInt}, hhir.PassConfig{})
	if countOps(u, hhir.CheckType) != 0 {
		t.Errorf("entry guards were emitted as runtime checks:\n%s", u)
	}
}

func TestUnitPrinting(t *testing.T) {
	src := `function p($x) { return $x; } echo p(1);`
	u := buildFor(t, src, "p", map[int]types.Type{0: types.TInt}, hhir.PassConfig{})
	s := u.String()
	if !strings.Contains(s, "HHIR unit for p") || !strings.Contains(s, "Ret") {
		t.Errorf("printer output suspicious:\n%s", s)
	}
}

var _ = hhbc.OpNop

// TestShapeGuardElim exercises the pass directly on a hand-built
// unit: a dominated identical guard dies, a different shape ID on the
// same value does not, and a shape-mutating op in between kills the
// learned fact.
func TestShapeGuardElim(t *testing.T) {
	build := func(mid hhir.Opcode, secondID int64) *hhir.Unit {
		u := hhir.NewUnit(&hhbc.Func{Name: "t"})
		b := u.NewBlock(0)
		u.Entry = b
		obj := u.NewTmp(types.TObj)
		b.Instrs = append(b.Instrs,
			&hhir.Instr{Op: hhir.GuardShape, I64: 7, Args: []*hhir.SSATmp{obj}})
		if mid != hhir.Nop {
			b.Instrs = append(b.Instrs, &hhir.Instr{Op: mid})
		}
		b.Instrs = append(b.Instrs,
			&hhir.Instr{Op: hhir.GuardShape, I64: secondID, Args: []*hhir.SSATmp{obj}},
			&hhir.Instr{Op: hhir.Ret})
		return u
	}

	u := build(hhir.Nop, 7)
	hhir.ShapeGuardElim(u)
	if n := countOps(u, hhir.GuardShape); n != 1 {
		t.Errorf("dominated identical guard survived: %d guards left:\n%s", n, u)
	}

	u = build(hhir.Nop, 9)
	hhir.ShapeGuardElim(u)
	if n := countOps(u, hhir.GuardShape); n != 2 {
		t.Errorf("guard for a different shape was removed: %d guards left:\n%s", n, u)
	}

	// A call may run arbitrary guest code and mutate any shape.
	u = build(hhir.CallFunc, 7)
	hhir.ShapeGuardElim(u)
	if n := countOps(u, hhir.GuardShape); n != 2 {
		t.Errorf("guard after a shape-mutating call was removed: %d guards left:\n%s", n, u)
	}

	// A guarded typed store preserves the shape: the fact survives.
	u = build(hhir.StPropSlot, 7)
	hhir.ShapeGuardElim(u)
	if n := countOps(u, hhir.GuardShape); n != 1 {
		t.Errorf("StPropSlot should not invalidate the shape fact: %d guards left:\n%s", n, u)
	}
}
