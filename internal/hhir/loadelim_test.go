package hhir_test

import (
	"testing"

	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The load-forwarding tests lower hand-built regions over these
// functions, optimize them and count what is left; like the type-flow
// tests they pin the bytecode pcs their block boundaries sit on.
const loadSrc = `
function sameArms($v) { if ($v > 1) { $x = $v; } else { $x = $v; } return $x; }
function diffArms($c) { if ($c) { $x = 1; } else { $x = 2.5; } return $x; }
function countLoop($n) { $k = 3; $s = 0; for ($i = 0; $i < $n; $i++) { $s = $s + $k; } return $s; }
function guardStore($x, $c) { if ($c) { $c = 0; } $t = $x; $x = 5; return $t + $x; }
function sw($k, $v) { $a = $v; switch ($k) { case 0: return $a; case 1: return $a + 1; case 2: return $a + 2; default: return $a + 3; } }
function once($a) { $r = $t; $t = $a; return $r; }
function callOnce($a) { return once($a); }
function app($v) { $a = [$v]; $a[] = 2; $n = count($a); return $n + count($a); }
function entryLoop($i, $n) { while ($i < $n) { $i = $i + 1; } return $i; }
function asFloat(float $x) { return $x; }
function asOptFloat(?float $x) { return $x; }
function kinds($a, $b) { return (is_float($a) ? "f" : "i") . (is_float($b) ? "f" : "i") . ($a + $b); }
function coerceLoop($n) { $r = 0; $q = 0; for ($i = 0; $i < $n; $i++) { $r = asFloat($i); $q = asOptFloat($i); } return kinds($r, $q); }
`

// optimized lowers desc and runs the optimized pipeline over it.
func (x *flowFixture) optimized(desc *region.Desc, cfg hhir.BuildConfig) *hhir.Unit {
	x.t.Helper()
	hu := x.build(desc, cfg)
	hhir.Optimize(hu, hhir.AllPasses)
	return hu
}

// loadsOf counts the unit's LdLocs of a frame slot.
func loadsOf(hu *hhir.Unit, slot int) int {
	n := 0
	for _, b := range hu.Blocks {
		for _, in := range b.Instrs {
			if in.Op == hhir.LdLoc && in.I64 == int64(slot) {
				n++
			}
		}
	}
	return n
}

// wantLoads asserts the optimized unit's forwarding counters and the
// number of LdLocs it still holds.
func (x *flowFixture) wantLoads(hu *hhir.Unit, left, forwarded, phis int) {
	x.t.Helper()
	if got := countOps(hu, hhir.LdLoc); got != left || hu.Opt.LoadsForwarded != forwarded || hu.Opt.PhisInserted != phis {
		x.t.Errorf("%d LdLoc left, %d forwarded, %d block params inserted; want %d, %d, %d\n%s",
			got, hu.Opt.LoadsForwarded, hu.Opt.PhisInserted, left, forwarded, phis, hu)
	}
}

// blockAt returns the unit's block that starts at bytecode pc and has
// nparams parameters.
func (x *flowFixture) blockAt(hu *hhir.Unit, pc, nparams int) *hhir.Block {
	x.t.Helper()
	for _, b := range hu.Blocks {
		if b.BCStart == pc && len(b.Params) == nparams {
			return b
		}
	}
	x.t.Fatalf("no block at pc %d with %d parameters\n%s", pc, nparams, hu)
	return nil
}

// TestLoadElimDiamondSameValue: both arms store the value the entry
// block loaded, so the join needs no parameter and its load is gone —
// as are the arms' own loads of $v.
func TestLoadElimDiamondSameValue(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("sameArms")
	x.at(f, 3, hhbc.OpJmpZ)
	x.at(f, 6, hhbc.OpJmp)
	x.at(f, 9, hhbc.OpCGetL)
	desc := mkDesc(map[int][]int{0: {1, 2}, 1: {3}, 2: {3}},
		block(f, 0, 4, 0, local(0, types.TInt), local(1, types.TUninit)),
		block(f, 4, 7, 0),
		block(f, 7, 9, 0),
		block(f, 9, 11, 0))
	hu := x.optimized(desc, hhir.BuildConfig{})
	x.wantLoads(hu, 1, 3, 0)
	x.run(desc, vals(runtime.Int(5)), vals(runtime.Int(0)))
}

// TestLoadElimDiamondDifferentValues: the arms store an Int and a Dbl,
// so the join gets one parameter, typed as their union, and the load
// reads it.
func TestLoadElimDiamondDifferentValues(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("diffArms")
	x.at(f, 1, hhbc.OpJmpZ)
	x.at(f, 4, hhbc.OpJmp)
	x.at(f, 7, hhbc.OpCGetL)
	desc := mkDesc(map[int][]int{0: {1, 2}, 1: {3}, 2: {3}},
		block(f, 0, 2, 0, local(0, types.TInt), local(1, types.TUninit)),
		block(f, 2, 5, 0),
		block(f, 5, 7, 0),
		block(f, 7, 9, 0))
	hu := x.optimized(desc, hhir.BuildConfig{})
	x.wantLoads(hu, 1, 1, 1)
	if p := x.blockAt(hu, 7, 1).Params[0]; p.Type != types.TNum {
		t.Errorf("the join's parameter is %s, want Int|Dbl", p.Type)
	}
	x.run(desc, vals(runtime.Int(1)), vals(runtime.Int(0)))
}

// TestLoadElimCountedLoop: $i and $s change in the body, so the header
// takes them as parameters; $k does not — the back-edge brings the
// value the preheader stored, its phi is trivial — and $n is loaded by
// the header itself, once per iteration, because the preheader knows
// nothing of it.
func TestLoadElimCountedLoop(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("countLoop")
	x.at(f, 9, hhbc.OpJmpZ)
	x.at(f, 16, hhbc.OpJmp)
	desc := mkDesc(map[int][]int{0: {1}, 1: {2, 3}, 2: {1}},
		block(f, 0, 6, 0, local(0, types.TInt), local(1, types.TUninit), local(2, types.TUninit), local(3, types.TUninit)),
		block(f, 6, 10, 0, local(3, types.TInt), local(0, types.TInt)),
		block(f, 10, 17, 0, local(2, types.TInt), local(1, types.TInt), local(3, types.TInt)),
		block(f, 17, 19, 0, local(2, types.TInt)))
	hu := x.optimized(desc, hhir.BuildConfig{})
	x.wantLoads(hu, 1, 5, 2)
	if loadsOf(hu, 0) != 1 {
		t.Errorf("the one load left is not the header's load of $n\n%s", hu)
	}
	for _, p := range x.blockAt(hu, 6, 2).Params {
		if p.Type != types.TInt {
			t.Errorf("header parameter %s is not an Int", p)
		}
	}
	x.run(desc, vals(runtime.Int(5)), vals(runtime.Int(0)))
}

// TestLoadElimGuardEdgeCarriesStateAtTheGuard: two retranslations of
// one address; the first's guard on $x fails over to the second in the
// middle of the block, before the block's `$x = 5`. The second member's
// own guard reads the value the first one loaded — not the 5 stored
// after the edge left.
func TestLoadElimGuardEdgeCarriesStateAtTheGuard(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("guardStore")
	x.at(f, 1, hhbc.OpJmpZ)
	x.at(f, 4, hhbc.OpCGetL)
	desc := mkDesc(map[int][]int{0: {1, 2, 3}, 1: {2, 3}},
		block(f, 0, 2, 0, local(1, types.TInt)),
		block(f, 2, 4, 0),
		block(f, 4, 12, 0, local(0, types.TInt)),
		block(f, 4, 12, 0, local(0, types.TDbl)))
	hu := x.optimized(desc, hhir.BuildConfig{})
	// Of $x: the first member's guard loads it, every other read is
	// forwarded.
	if loadsOf(hu, 0) != 1 || hu.Opt.GuardLoadsShared != 1 {
		t.Errorf("%d loads of $x, %d guards on a shared value; want 1 and 1\n%s",
			loadsOf(hu, 0), hu.Opt.GuardLoadsShared, hu)
	}
	var argSets [][]runtime.Value
	for _, c := range []int64{0, 1} {
		argSets = append(argSets,
			vals(runtime.Int(2), runtime.Int(c)),
			vals(runtime.Dbl(1.5), runtime.Int(c)))
	}
	x.run(desc, argSets...)
}

// TestLoadElimSwitchTargetsKeepLoads: a jump table names blocks, not
// argument lists, so nothing is known on entry to a case reached
// through it and its load of $a stays, although the store is in plain
// sight. The default is an ordinary edge and its load is forwarded.
func TestLoadElimSwitchTargetsKeepLoads(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("sw")
	x.at(f, 3, hhbc.OpSwitch)
	x.at(f, 6, hhbc.OpCGetL)
	x.at(f, 10, hhbc.OpCGetL)
	x.at(f, 14, hhbc.OpCGetL)
	desc := mkDesc(map[int][]int{0: {1, 2, 3, 4}},
		block(f, 0, 4, 0, local(0, types.TInt), local(1, types.TInt), local(2, types.TUninit)),
		block(f, 4, 6, 0),
		block(f, 6, 10, 0),
		block(f, 10, 14, 0),
		block(f, 14, 18, 0))
	hu := x.optimized(desc, hhir.BuildConfig{})
	if countOps(hu, hhir.SwitchInt) != 1 {
		t.Fatalf("no SwitchInt\n%s", hu)
	}
	if got := loadsOf(hu, 2); got != 3 || hu.Opt.PhisInserted != 0 {
		t.Errorf("%d loads of $a in the three table cases, %d block params; want 3 and 0\n%s", got, hu.Opt.PhisInserted, hu)
	}
	var argSets [][]runtime.Value
	for k := int64(-1); k < 5; k++ {
		argSets = append(argSets, vals(runtime.Int(k), runtime.Int(10)))
	}
	x.run(desc, argSets...)
}

// TestLoadElimUninitIsNotForwarded: the inliner resets the callee's
// other locals to Uninit with plain stores. A load of one yields Null,
// not the Uninit stored, so it stays a load.
func TestLoadElimUninitIsNotForwarded(t *testing.T) {
	x := newFixture(t, loadSrc)
	callee, caller := x.fn("once"), x.fn("callOnce")
	x.at(callee, 0, hhbc.OpCGetL)
	x.at(caller, 1, hhbc.OpFCallD)
	calleeDesc := mkDesc(nil, block(callee, 0, 6, 0))
	callerDesc := mkDesc(nil, block(caller, 0, 3, 0, local(0, types.TInt)))
	hu := x.optimized(callerDesc, hhir.BuildConfig{EnableInlining: true,
		RegionOf: func(*hhbc.Func, []types.Type) *region.Desc { return calleeDesc }})
	if countOps(hu, hhir.EndInline) != 1 {
		t.Fatalf("once was not inlined\n%s", hu)
	}
	slotT := caller.NumLocals + 1 // the callee's $t
	if loadsOf(hu, slotT) == 0 {
		t.Errorf("the load of the Uninit $t was forwarded\n%s", hu)
	}
	x.run(callerDesc, vals(runtime.Int(7)))
}

// TestLoadElimArrayAppendKills: `$a[] = 2` may put a copied array into
// the slot, so the value stored before it is not what the next load
// reads; that load defines the slot's value again and the one after it
// is forwarded.
func TestLoadElimArrayAppendKills(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("app")
	x.at(f, 4, hhbc.OpArrAppendL)
	desc := mkDesc(nil, block(f, 0, 13, 0, local(0, types.TInt), local(1, types.TUninit), local(2, types.TUninit)))
	hu := x.optimized(desc, hhir.BuildConfig{})
	if got := loadsOf(hu, 1); got != 1 {
		t.Errorf("%d loads of $a, want the one after the append\n%s", got, hu)
	}
	if hu.Opt.LoadsForwarded == 0 {
		t.Errorf("nothing was forwarded\n%s", hu)
	}
	x.run(desc, vals(runtime.Int(9)))
}

// TestLoadElimEntryBlockKnowsNothing: the dispatcher enters block 0
// with every local in the frame only, so the back-edge's values are not
// passed into it: it gets no parameters and keeps its loads, which the
// body and the exit then read.
func TestLoadElimEntryBlockKnowsNothing(t *testing.T) {
	x := newFixture(t, loadSrc)
	f := x.fn("entryLoop")
	x.at(f, 3, hhbc.OpJmpZ)
	x.at(f, 8, hhbc.OpJmp)
	desc := mkDesc(map[int][]int{0: {1, 2}, 1: {0}},
		block(f, 0, 4, 0, local(0, types.TInt), local(1, types.TInt)),
		block(f, 4, 9, 0, local(0, types.TInt)),
		block(f, 9, 11, 0, local(0, types.TInt)))
	hu := x.optimized(desc, hhir.BuildConfig{})
	if jumpsToEntry(hu) != 1 {
		t.Fatalf("the back-edge left the region\n%s", hu)
	}
	x.wantLoads(hu, 2, 2, 0)
	if n := len(hu.Entry.Params); n != 0 {
		t.Errorf("the entry block got %d parameters\n%s", n, hu)
	}
	x.run(desc, vals(runtime.Int(0), runtime.Int(3)), vals(runtime.Int(3), runtime.Int(3)))
}

// TestLoadElimVerifyParamKills: VerifyParam turns the Int bound to an
// inlined float (or ?float) parameter into a Dbl in place, so the value
// stored into the parameter's slot is not what `return $x` reads. The
// loop passes its Int counter; forwarding the argument past the
// coercion would return it as it was, and kinds would say "ii".
func TestLoadElimVerifyParamKills(t *testing.T) {
	x := newFixture(t, loadSrc)
	asFloat, asOpt, caller := x.fn("asFloat"), x.fn("asOptFloat"), x.fn("coerceLoop")
	x.at(asFloat, 0, hhbc.OpVerifyParamType)
	x.at(asOpt, 0, hhbc.OpVerifyParamType)
	x.at(caller, 9, hhbc.OpJmpZ)
	x.at(caller, 11, hhbc.OpFCallD)
	x.at(caller, 14, hhbc.OpFCallD)
	x.at(caller, 18, hhbc.OpJmp)
	callerDesc := mkDesc(map[int][]int{0: {1}, 1: {2, 3}, 2: {1}},
		block(caller, 0, 6, 0, local(0, types.TInt)),
		block(caller, 6, 10, 0, local(3, types.TInt), local(0, types.TInt)),
		block(caller, 10, 19, 0, local(3, types.TInt)),
		block(caller, 19, 23, 0))
	cfg := hhir.BuildConfig{EnableInlining: true,
		RegionOf: func(f *hhbc.Func, _ []types.Type) *region.Desc {
			if f != asFloat && f != asOpt {
				return nil
			}
			return mkDesc(nil, block(f, 0, 3, 0))
		}}
	hu := x.optimized(callerDesc, cfg)
	if countOps(hu, hhir.EndInline) != 2 || countOps(hu, hhir.VerifyParam) != 2 {
		t.Fatalf("the two callees were not inlined behind their VerifyParams\n%s", hu)
	}
	for _, b := range hu.Blocks {
		for _, in := range b.Instrs {
			if in.Op != hhir.EndInline {
				continue
			}
			// What the callee returns is the load after the coercion.
			if def := in.Args[0].Def; def == nil || def.Op != hhir.LdLoc || !types.TDbl.SubtypeOf(in.Args[0].Type) {
				t.Errorf("an inlined callee returns %s, not a load of its coerced parameter\n%s", in.Args[0], hu)
			}
		}
	}

	// End to end the callees' regions are the JIT's own, formed from the
	// profile these direct calls leave.
	for _, name := range []string{"asFloat", "asOptFloat"} {
		for i := int64(0); i < 4; i++ {
			v, err := x.eng.Call(name, runtime.Int(i))
			if err != nil {
				t.Fatal(err)
			}
			x.eng.Heap().DecRef(v)
		}
	}
	x.run(callerDesc, vals(runtime.Int(4)), vals(runtime.Int(1)), vals(runtime.Int(0)))
}
