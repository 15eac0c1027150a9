package jit

import (
	"testing"

	"repro/internal/emitter"
	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/parser"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
)

// TestTraceletGuardsStaticStrings: a live tracelet selected while a
// local holds a unit literal guards that local as a static string, and
// the dispatcher's check (Matches, ChainMatch with no source) rejects a frame
// where it holds a counted one: the tracelet counts no reference of it.
// A profiling translation's guards seed optimized regions, so they keep
// plain Str and admit both.
func TestTraceletGuardsStaticStrings(t *testing.T) {
	prog, err := parser.Parse(`function f($s) { $t = $s; return $t; }`)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := emitter.Emit(prog)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := unit.FuncByName("f")
	for _, c := range []struct {
		mode Mode
		want types.Type
	}{{ModeTracelet, types.TStaticStr}, {ModeProfiling, types.TStr}} {
		j, _ := policyJIT(t, unit, fn, c.mode)
		heap := j.Env.Heap
		lit := j.Env.TakeFrame(fn, nil, []runtime.Value{runtime.StrV(runtime.InternStr("lit"))})
		counted := j.Env.TakeFrame(fn, nil, []runtime.Value{heap.NewStr("computed")})
		tr := j.translate(fn, lit, c.mode, &machine.Meter{})
		if tr == nil {
			t.Fatalf("%v: no translation", c.mode)
		}
		guard := region.Guard{}
		for _, g := range tr.Preconds {
			if g.Loc.Kind == region.LocLocal && g.Loc.Slot == 0 {
				guard = g
			}
		}
		if guard.Type != c.want {
			t.Errorf("%v: $s guarded %v, want %v", c.mode, guard.Type, c.want)
		}
		if !tr.Matches(lit) {
			t.Errorf("%v: the frame it was selected from is rejected", c.mode)
		}
		if admitsCounted := c.mode != ModeTracelet; tr.Matches(counted) != admitsCounted {
			t.Errorf("%v: a counted string in $s matches = %v, want %v",
				c.mode, !admitsCounted, admitsCounted)
		}
	}
}

// TestChainMatchSkipsWhatTheSourceProved: tracelet A reads $c and
// binds to the join, tracelet B there reads $c and $s. A's end state
// proves B's guard on $c, so a transfer out of A checks (and charges)
// only $s; that check still rejects a counted string where B guards a
// static one. With no source every guard is checked.
func TestChainMatchSkipsWhatTheSourceProved(t *testing.T) {
	prog, err := parser.Parse(`function f($s, $c) { if ($c) { $c = 0; } return $s . $c; }`)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := emitter.Emit(prog)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := unit.FuncByName("f")
	join := -1
	for _, in := range fn.Instrs {
		if in.Op == hhbc.OpJmpZ {
			join = int(in.A)
		}
	}
	if join < 0 {
		t.Fatalf("no JmpZ in f:\n%v", fn.Instrs)
	}
	j, _ := policyJIT(t, unit, fn, ModeTracelet)
	frame := func(s runtime.Value, pc int) *interp.Frame {
		fr := j.Env.TakeFrame(fn, nil, []runtime.Value{s, runtime.Int(0)})
		fr.PC = pc
		return fr
	}
	lit := runtime.StrV(runtime.InternStr("lit"))
	a := j.translate(fn, frame(lit, 0), ModeTracelet, &machine.Meter{})
	b := j.translate(fn, frame(lit, join), ModeTracelet, &machine.Meter{})
	if a == nil || b == nil || a.Code.EndLocals == nil {
		t.Fatalf("want two tracelets, the first with an end state: %v %v", a, b)
	}
	if len(b.Preconds) != 2 {
		t.Fatalf("the join's tracelet guards %v, want $s and $c", b.Preconds)
	}
	for _, c := range []struct {
		s      runtime.Value
		from   *mcode.Code
		guards int
		ok     bool
		name   string
	}{
		{lit, &a.Code, 1, true, "literal, chained from A"},
		{j.Env.Heap.NewStr("computed"), &a.Code, 1, false, "counted, chained from A"},
		{lit, nil, 2, true, "literal, no source"},
		{runtime.Int(1), &a.Code, 1, false, "int, chained from A"},
	} {
		guards, ok := b.ChainMatch(frame(c.s, join), c.from)
		if guards != c.guards || ok != c.ok {
			t.Errorf("%s: %d guards checked, match %v; want %d, %v", c.name, guards, ok, c.guards, c.ok)
		}
	}
}

// TestGuardedSlotsAgreeWithTheSelector: a precondition's compiled check
// reads the frame slot the selector typed and answers as the selector's
// type would — for an Uninit local, a literal, a counted string and a
// local past the frame. A stack slot past the frame satisfies no check;
// ChainMatch's depth check has already failed such a frame.
func TestGuardedSlotsAgreeWithTheSelector(t *testing.T) {
	fr := &interp.Frame{Locals: []runtime.Value{
		runtime.Uninit(), runtime.StrV(runtime.InternStr("lit")), runtime.NewHeap().NewStr("s"),
	}}
	src := frameTypeSource{fr, true}
	for _, ty := range []types.Type{
		types.TUninit, types.TNull, types.TUninit.Union(types.TNull), types.TStr, types.TStaticStr,
		types.TNull.Union(types.TStaticStr), types.TUncounted, types.TCell, types.TInitCell,
	} {
		c := runtime.NewCheck(ty, nil)
		for slot := 0; slot <= len(fr.Locals); slot++ {
			loc := region.Loc{Kind: region.LocLocal, Slot: slot}
			if got, want := c.Holds(guarded(fr, loc)), src.LocalType(slot).SubtypeOf(ty); got != want {
				t.Errorf("local %d against %s: Holds = %v, selector type %s says %v",
					slot, ty, got, src.LocalType(slot), want)
			}
		}
		if c.Holds(guarded(fr, region.Loc{Kind: region.LocStack, Slot: 0})) {
			t.Errorf("a stack slot past the frame satisfies %s", ty)
		}
	}
}
