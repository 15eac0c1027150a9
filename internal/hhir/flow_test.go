package hhir_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The type-flow tests lower hand-built regions over these functions.
// The block boundaries below are bytecode pcs of the unoptimized
// emitter output (`hhbcdump -no-hhbbc`); flowFixture.at pins the
// instruction each one is expected to sit on.
const flowSrc = `
function diamond($c) { if ($c) { $x = 1; } else { $x = 2; } return $x + 1; }
function diamondMixed($c) { if ($c) { $x = 1; } else { $x = 2.5; } return $x + 1; }
function tern($c) { return ($c ? 1 : 2) + 1; }
function ternMixed($c) { return ($c ? 1 : 2.5) + 1; }
function loopInv($n) { $k = 3; $s = 0; for ($i = 0; $i < $n; $i++) { $s = $s + $k; } return $s; }
function loopRetype($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s = $s + 0.5; } return $s; }
function chain3($x, $y, $c) { if ($c) { $c = 0; } return $x + $y; }
function callee($p, $c) { if ($c) { $p = $p + 1; } return $p; }
function caller($a) { return callee($a, 1) + 1; }
function entryLoop($i, $n) { while ($i < $n) { $i = $i + 1; } return $i; }
function entryLoopRetype($i, $n) { while ($i < $n) { $i = $i + 0.5; } return $i; }
function half(?float $x) { return $x; }
function pickHalf($c) { if ($c) { $v = 3; } else { $v = null; } return half($v); }
`

// flowFixture holds one compiled unit, a region-mode engine that never
// reaches its own retranslation trigger (so the only optimized code is
// what a test publishes) and the interpreter to compare against.
type flowFixture struct {
	t      *testing.T
	unit   *hhbc.Unit
	eng    *core.Engine
	interp *core.Engine
}

func newFlowFixture(t *testing.T) *flowFixture { return newFixture(t, flowSrc) }

func newFixture(t *testing.T, src string) *flowFixture {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{SkipHHBBC: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 1 << 40
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	icfg := jit.DefaultConfig()
	icfg.Mode = jit.ModeInterp
	in, err := core.NewEngine(unit, icfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return &flowFixture{t: t, unit: unit, eng: eng, interp: in}
}

func (x *flowFixture) fn(name string) *hhbc.Func {
	x.t.Helper()
	f, ok := x.unit.FuncByName(name)
	if !ok {
		x.t.Fatalf("no function %s", name)
	}
	return f
}

// at fails the test unless f's instruction at pc is op: the hand-built
// block boundaries depend on it.
func (x *flowFixture) at(f *hhbc.Func, pc int, op hhbc.Op) {
	x.t.Helper()
	if got := f.Instrs[pc].Op; got != op {
		x.t.Fatalf("%s@%d is %s, want %s: the emitter's output moved, rebuild the test region", f.Name, pc, got, op)
	}
}

func block(f *hhbc.Func, start, end, depth int, guards ...region.Guard) *region.Block {
	return &region.Block{Func: f, Start: start, NumInstrs: end - start,
		EntryStackDepth: depth, Preconds: guards, ProfCounter: -1}
}

func local(slot int, t types.Type) region.Guard {
	return region.Guard{Loc: region.Loc{Kind: region.LocLocal, Slot: slot}, Type: t, Constraint: region.ConSpecific}
}

func stack(d int, t types.Type) region.Guard {
	return region.Guard{Loc: region.Loc{Kind: region.LocStack, Slot: d}, Type: t, Constraint: region.ConSpecific}
}

// mkDesc assembles a region from its arcs by block; blocks starting at
// the same pc chain in the order given.
func mkDesc(arcs map[int][]int, blocks ...*region.Block) *region.Desc {
	d := &region.Desc{Blocks: blocks, Arcs: make([][]int, len(blocks)), Weight: make([]uint64, len(blocks))}
	chainOf := map[int]int{}
	for i, b := range blocks {
		d.Arcs[i] = arcs[i]
		d.Weight[i] = 1
		ci, ok := chainOf[b.Start]
		if !ok {
			ci = len(d.Chains)
			chainOf[b.Start] = ci
			d.Chains = append(d.Chains, nil)
		}
		d.Chains[ci] = append(d.Chains[ci], i)
	}
	return d
}

// build lowers desc (no optimization passes: the guards counted are
// the ones the builder emitted) and checks the unit's own count.
func (x *flowFixture) build(desc *region.Desc, cfg hhir.BuildConfig) *hhir.Unit {
	x.t.Helper()
	hu, err := hhir.Build(x.unit, x.eng.VM.JIT.Env, desc, cfg)
	if err != nil {
		x.t.Fatal(err)
	}
	if n := countOps(hu, hhir.CheckType); n != hu.Stats.Guards {
		x.t.Errorf("unit holds %d CheckType, its stats say %d\n%s", n, hu.Stats.Guards, hu)
	}
	return hu
}

// wantGuards asserts the emitted-guard split — checks of a local (a
// CheckType of the LdLoc before it) and of a stack value — and the
// rebuild count.
func (x *flowFixture) wantGuards(hu *hhir.Unit, locals, stackVals, proven, rebuilds int) {
	x.t.Helper()
	gl, gs := 0, 0
	for _, b := range hu.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op != hhir.CheckType:
			case in.Args[0].Def != nil && in.Args[0].Def.Op == hhir.LdLoc:
				gl++
			default:
				gs++
			}
		}
	}
	if gl != locals || gs != stackVals || hu.Stats.GuardsProven != proven || hu.Stats.Rebuilds != rebuilds {
		x.t.Errorf("%d checks of locals, %d of stack values, %d proven, %d rebuilds; want %d, %d, %d, %d\n%s",
			gl, gs, hu.Stats.GuardsProven, hu.Stats.Rebuilds, locals, stackVals, proven, rebuilds, hu)
	}
}

// run publishes desc as the optimized translation of its function and
// holds every call to the interpreter's answer.
func (x *flowFixture) run(desc *region.Desc, argSets ...[]runtime.Value) {
	x.t.Helper()
	f := desc.Entry().Func
	tr := x.eng.VM.JIT.PublishRegion(desc)
	if tr == nil {
		x.t.Fatalf("region for %s did not compile", f.Name)
	}
	for _, args := range argSets {
		want, werr := x.interp.VM.CallFunc(f, nil, append([]runtime.Value(nil), args...))
		uses := tr.Uses()
		got, gerr := x.eng.VM.CallFunc(f, nil, append([]runtime.Value(nil), args...))
		if tr.Uses() == uses {
			x.t.Errorf("%s%v did not enter the published region", f.Name, args)
		}
		if (werr == nil) != (gerr == nil) || got.DebugString() != want.DebugString() {
			x.t.Errorf("%s%v = %s, %v; the interpreter says %s, %v", f.Name, args,
				got.DebugString(), gerr, want.DebugString(), werr)
		}
		x.eng.Heap().DecRef(got)
		x.interp.Heap().DecRef(want)
	}
	if h := x.eng.Heap().Snapshot(); h.LiveObjs != 0 || h.LiveStrs != 0 || h.LiveArrs != 0 || h.OverReleases != 0 {
		x.t.Errorf("%s left %d guest objects, %d strings and %d arrays live, %d over-releases",
			f.Name, h.LiveObjs, h.LiveStrs, h.LiveArrs, h.OverReleases)
	}
}

func vals(vs ...runtime.Value) []runtime.Value { return vs }

// diamondDesc is the if/else of diamond and diamondMixed: the join
// guards $x, which both arms store.
func (x *flowFixture) diamondDesc(name string) *region.Desc {
	f := x.fn(name)
	x.at(f, 1, hhbc.OpJmpZ)
	x.at(f, 4, hhbc.OpJmp)
	x.at(f, 7, hhbc.OpCGetL)
	return mkDesc(map[int][]int{0: {1, 2}, 1: {3}, 2: {3}},
		block(f, 0, 2, 0, local(0, types.TInt)),
		block(f, 2, 5, 0),
		block(f, 5, 7, 0),
		block(f, 7, 11, 0, local(1, types.TInt)))
}

// TestFlowDiamond: the join's guard disappears when every arm proves
// it and stays when one does not.
func TestFlowDiamond(t *testing.T) {
	x := newFlowFixture(t)
	agree := x.diamondDesc("diamond")
	x.wantGuards(x.build(agree, hhir.BuildConfig{}), 0, 0, 1, 0)
	x.run(agree, vals(runtime.Int(1)), vals(runtime.Int(0)))

	mixed := x.diamondDesc("diamondMixed")
	hu := x.build(mixed, hhir.BuildConfig{})
	x.wantGuards(hu, 1, 0, 0, 0)
	x.run(mixed, vals(runtime.Int(1)), vals(runtime.Int(0)))
}

// ternDesc is the ?: of tern and ternMixed: the arms leave their value
// on the stack, so the join has a parameter and guards it.
func (x *flowFixture) ternDesc(name string) *region.Desc {
	f := x.fn(name)
	x.at(f, 1, hhbc.OpJmpZ)
	x.at(f, 3, hhbc.OpJmp)
	x.at(f, 6, hhbc.OpAdd)
	return mkDesc(map[int][]int{0: {1, 2}, 1: {3}, 2: {3}},
		block(f, 0, 2, 0, local(0, types.TInt)),
		block(f, 2, 4, 0),
		block(f, 4, 5, 0),
		block(f, 5, 8, 1, stack(0, types.TInt)))
}

// TestFlowStackValueAcrossJoin: a block parameter takes the union of
// what its predecessors pass, and the CheckType on it goes when that
// union is already the guarded type.
func TestFlowStackValueAcrossJoin(t *testing.T) {
	x := newFlowFixture(t)
	joinParam := func(hu *hhir.Unit) types.Type {
		for _, b := range hu.Blocks {
			if b.BCStart == 5 && len(b.Params) == 1 {
				return b.Params[0].Type
			}
		}
		t.Fatalf("no join block with one parameter:\n%s", hu)
		return types.TBottom
	}

	agree := x.ternDesc("tern")
	hu := x.build(agree, hhir.BuildConfig{})
	x.wantGuards(hu, 0, 0, 1, 0)
	if got := joinParam(hu); got != types.TInt {
		t.Errorf("join parameter is %s, want Int", got)
	}
	x.run(agree, vals(runtime.Int(1)), vals(runtime.Int(0)))

	mixed := x.ternDesc("ternMixed")
	hu = x.build(mixed, hhir.BuildConfig{})
	x.wantGuards(hu, 0, 1, 0, 0)
	if got := joinParam(hu); got != types.TNum {
		t.Errorf("join parameter is %s, want Int|Dbl", got)
	}
	x.run(mixed, vals(runtime.Int(1)), vals(runtime.Int(0)))
}

// TestFlowLoopInvariant: the header is lowered under what the
// preheader proves, and the back-edge — which arrives after the header
// was lowered — is checked against it and holds.
func TestFlowLoopInvariant(t *testing.T) {
	x := newFlowFixture(t)
	f := x.fn("loopInv")
	x.at(f, 9, hhbc.OpJmpZ)
	x.at(f, 16, hhbc.OpJmp)
	desc := mkDesc(map[int][]int{0: {1}, 1: {2, 3}, 2: {1}},
		block(f, 0, 6, 0, local(0, types.TInt)),
		block(f, 6, 10, 0, local(3, types.TInt), local(0, types.TInt)),
		block(f, 10, 17, 0, local(2, types.TInt), local(1, types.TInt), local(3, types.TInt)),
		block(f, 17, 19, 0, local(2, types.TInt)))
	x.wantGuards(x.build(desc, hhir.BuildConfig{}), 0, 0, 6, 0)
	x.run(desc, vals(runtime.Int(5)), vals(runtime.Int(0)))
}

// TestFlowLoopRetypeRebuilds: the body turns $s from Int to Dbl, so
// the back-edge breaks what the header assumed of it. The attempt is
// discarded, the region is lowered again with that fact denied, and
// the body's guards on $s — which the first attempt had proven from
// the broken fact — are back.
func TestFlowLoopRetypeRebuilds(t *testing.T) {
	x := newFlowFixture(t)
	f := x.fn("loopRetype")
	x.at(f, 7, hhbc.OpJmpZ)
	x.at(f, 14, hhbc.OpJmp)
	desc := mkDesc(map[int][]int{0: {1}, 1: {2, 3, 4, 5}, 2: {1}, 3: {1}},
		block(f, 0, 4, 0, local(0, types.TInt)),
		block(f, 4, 8, 0, local(2, types.TInt), local(0, types.TInt)),
		block(f, 8, 15, 0, local(1, types.TInt), local(2, types.TInt)),
		block(f, 8, 15, 0, local(1, types.TDbl), local(2, types.TInt)),
		block(f, 15, 17, 0, local(1, types.TInt)),
		block(f, 15, 17, 0, local(1, types.TDbl)))
	// $s is guarded in both bodies and both exits; $i and $n stay proven.
	x.wantGuards(x.build(desc, hhir.BuildConfig{}), 4, 0, 4, 1)
	x.run(desc, vals(runtime.Int(4)), vals(runtime.Int(1)), vals(runtime.Int(0)))
}

// TestFlowChainFallThrough: three retranslations of one address. A
// failing guard hands the next member the state from before that guard
// refined anything — member k's `$x is Int` must not reach member k+1
// through the edge taken because $x was not Int — so every member
// checks both operands itself.
func TestFlowChainFallThrough(t *testing.T) {
	x := newFlowFixture(t)
	f := x.fn("chain3")
	x.at(f, 1, hhbc.OpJmpZ)
	x.at(f, 6, hhbc.OpAdd)
	desc := mkDesc(map[int][]int{0: {1, 2, 3, 4}, 1: {2, 3, 4}},
		block(f, 0, 2, 0, local(2, types.TInt)),
		block(f, 2, 4, 0),
		block(f, 4, 8, 0, local(0, types.TInt), local(1, types.TInt)),
		block(f, 4, 8, 0, local(0, types.TInt), local(1, types.TDbl)),
		block(f, 4, 8, 0, local(0, types.TDbl), local(1, types.TDbl)))
	x.wantGuards(x.build(desc, hhir.BuildConfig{}), 6, 0, 0, 0)
	var argSets [][]runtime.Value
	for _, c := range []int64{0, 1} {
		argSets = append(argSets,
			vals(runtime.Int(1), runtime.Int(2), runtime.Int(c)),
			vals(runtime.Int(1), runtime.Dbl(2.5), runtime.Int(c)),
			vals(runtime.Dbl(1.5), runtime.Dbl(2.5), runtime.Int(c)),
			vals(runtime.Dbl(1.5), runtime.Int(2), runtime.Int(c)))
	}
	x.run(desc, argSets...)
}

// TestFlowInlinedCallee: an inlined callee's region is a flow of its
// own. Its entry takes the argument types, its later blocks' guards on
// $p are proven from them, and the merge block's parameter takes the
// type the returns pass, so the caller's `+ 1` is an integer add.
func TestFlowInlinedCallee(t *testing.T) {
	x := newFlowFixture(t)
	callee, caller := x.fn("callee"), x.fn("caller")
	x.at(callee, 1, hhbc.OpJmpZ)
	x.at(callee, 5, hhbc.OpPopL)
	x.at(caller, 2, hhbc.OpFCallD)
	calleeDesc := mkDesc(map[int][]int{0: {1, 2}, 1: {2}},
		block(callee, 0, 2, 0, local(1, types.TInt)),
		block(callee, 2, 6, 0, local(0, types.TInt)),
		block(callee, 6, 8, 0, local(0, types.TInt)))
	callerDesc := mkDesc(nil, block(caller, 0, 6, 0, local(0, types.TInt)))

	hu := x.build(callerDesc, hhir.BuildConfig{EnableInlining: true,
		RegionOf: func(f *hhbc.Func, _ []types.Type) *region.Desc {
			if f != callee {
				t.Fatalf("asked to inline %s", f.Name)
			}
			return calleeDesc
		}})
	x.wantGuards(hu, 0, 0, 3, 0)
	if n := countOps(hu, hhir.EndInline); n != 1 {
		t.Fatalf("%d EndInline, want 1: the callee was not inlined\n%s", n, hu)
	}
	if countOps(hu, hhir.BinopGeneric) != 0 || countOps(hu, hhir.AddInt) != 2 {
		t.Errorf("the additions are not both AddInt: the callee's Int did not reach the caller\n%s", hu)
	}

	// End to end the callee's region is the JIT's own, formed from the
	// profile these direct calls leave.
	for _, c := range []int64{1, 0, 1, 0} {
		v, err := x.eng.Call("callee", runtime.Int(5), runtime.Int(c))
		if err != nil {
			t.Fatal(err)
		}
		x.eng.Heap().DecRef(v)
	}
	x.run(callerDesc, vals(runtime.Int(5)), vals(runtime.Int(-1)))
}

// TestFlowInlinedFloatHintWidensInt: the join passes `Int|Null` to an
// inlined `?float` parameter. VerifyParamType widens the Int to a Dbl
// at run time, so the parameter is `Dbl|Null` afterwards — not the
// `Null` that intersecting with the hint leaves, under which the
// callee returned a constant null for 3.
func TestFlowInlinedFloatHintWidensInt(t *testing.T) {
	x := newFlowFixture(t)
	callee, caller := x.fn("half"), x.fn("pickHalf")
	x.at(callee, 0, hhbc.OpVerifyParamType)
	x.at(callee, 2, hhbc.OpRetC)
	x.at(caller, 1, hhbc.OpJmpZ)
	x.at(caller, 4, hhbc.OpJmp)
	x.at(caller, 8, hhbc.OpFCallD)
	calleeDesc := mkDesc(nil, block(callee, 0, 3, 0))
	callerDesc := mkDesc(map[int][]int{0: {1, 2}, 1: {3}, 2: {3}},
		block(caller, 0, 2, 0, local(0, types.TInt)),
		block(caller, 2, 5, 0),
		block(caller, 5, 7, 0),
		block(caller, 7, 10, 0))
	cfg := hhir.BuildConfig{EnableInlining: true,
		RegionOf: func(*hhbc.Func, []types.Type) *region.Desc { return calleeDesc }}
	hu := x.build(callerDesc, cfg)
	if countOps(hu, hhir.EndInline) != 1 || countOps(hu, hhir.VerifyParam) != 1 {
		t.Fatalf("half was not inlined behind a VerifyParam\n%s", hu)
	}
	for _, b := range hu.Blocks {
		for _, in := range b.Instrs {
			if in.Op == hhir.EndInline && !types.TDbl.SubtypeOf(in.Args[0].Type) {
				t.Errorf("the inlined half returns a %s: the widened Int is missing", in.Args[0].Type)
			}
		}
	}
	x.run(callerDesc, vals(runtime.Int(1)), vals(runtime.Int(0)))
}

// entryLoopDesc is a region whose entry block is the loop header.
func (x *flowFixture) entryLoopDesc(name string) *region.Desc {
	f := x.fn(name)
	x.at(f, 3, hhbc.OpJmpZ)
	x.at(f, 8, hhbc.OpJmp)
	return mkDesc(map[int][]int{0: {1, 2}, 1: {0}},
		block(f, 0, 4, 0, local(0, types.TInt), local(1, types.TInt)),
		block(f, 4, 9, 0, local(0, types.TInt)),
		block(f, 9, 11, 0, local(0, types.TInt)))
}

// jumpsToEntry counts the unit's jumps back to its entry block.
func jumpsToEntry(hu *hhir.Unit) int {
	n := 0
	for _, b := range hu.Blocks {
		for _, in := range b.Instrs {
			if in.Op == hhir.Jmp && in.Next == hu.Entry {
				n++
			}
		}
	}
	return n
}

// TestFlowEntryBlockAssumesNothing: the dispatcher and chained jumps
// enter block 0 as well, so it is lowered under its own preconditions
// only, back-edge or not; and because those preconditions are asserts,
// a back-edge may only jump to it with a state that proves them.
func TestFlowEntryBlockAssumesNothing(t *testing.T) {
	x := newFlowFixture(t)
	desc := x.entryLoopDesc("entryLoop")
	hu := x.build(desc, hhir.BuildConfig{})
	x.wantGuards(hu, 0, 0, 2, 0)
	if jumpsToEntry(hu) != 1 {
		t.Errorf("the back-edge proves the entry's preconditions and should stay in the region\n%s", hu)
	}
	x.run(desc, vals(runtime.Int(0), runtime.Int(3)), vals(runtime.Int(3), runtime.Int(3)))

	// The body leaves $i a Dbl: nothing was assumed, so nothing is
	// rebuilt, but the jump back would run the entry's Int code on a
	// Dbl. It leaves through the dispatcher instead.
	retype := x.entryLoopDesc("entryLoopRetype")
	hu = x.build(retype, hhir.BuildConfig{})
	x.wantGuards(hu, 0, 0, 2, 0)
	if jumpsToEntry(hu) != 0 || countOps(hu, hhir.ReqBind) == 0 {
		t.Errorf("a back-edge that does not prove the entry's preconditions must leave the region\n%s", hu)
	}
	x.run(retype, vals(runtime.Int(0), runtime.Int(2)), vals(runtime.Int(2), runtime.Int(2)))
}
