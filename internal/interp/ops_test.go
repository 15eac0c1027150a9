package interp_test

import (
	"strings"
	"testing"

	"repro/internal/emitter"
	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The frame- and env-level operations are the single callee of the
// interpreter and of the machine's helpers, so they are pinned here
// directly: result, error text, and who owns which reference.

type countingMeter struct{ cycles uint64 }

func (m *countingMeter) Charge(n uint64) { m.cycles += n }

// newEnv links src (plus the prelude) without running it.
func newEnv(t *testing.T, src string) (*interp.Env, *strings.Builder) {
	t.Helper()
	prog, err := parser.Parse(prelude + src)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := emitter.Emit(prog)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	env, err := interp.NewEnv(unit, runtime.NewHeap(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	return env, &sb
}

const opsSrc = `
class Box { public $p = 1; function get($x) { return $x; } }
class Plain {}
function takes(int $i, float $f, string $s, bool $b, array $a, Box $o, ?int $n, $any) { return 1; }
function two($a, $b) { return $a . $b; }
function guarded($x) { try { return $x; } catch (Exception $e) { return 0; } }
`

func eachKind(env *interp.Env) map[string]runtime.Value {
	box, _ := env.ClassByName("Box")
	return map[string]runtime.Value{
		"Uninit": runtime.Uninit(), "Null": runtime.Null(), "Bool": runtime.Bool(true),
		"Int": runtime.Int(5), "Dbl": runtime.Dbl(2.5), "Str": env.Heap.NewStr("s"),
		"Arr": runtime.ArrV(env.Heap.NewPackedOf([]runtime.Value{runtime.Int(1)})),
		"Obj": runtime.ObjV(env.NewInstance(box)),
	}
}

func msg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestBinopDispatchesEveryOperator(t *testing.T) {
	h := runtime.NewHeap()
	five, two := runtime.Int(5), runtime.Int(2)
	want := map[hhbc.Op]string{
		hhbc.OpAdd: "7", hhbc.OpSub: "3", hhbc.OpMul: "10", hhbc.OpDiv: "2.5", hhbc.OpMod: "1",
		hhbc.OpNeg: "-5",
		hhbc.OpLt:  "", hhbc.OpLte: "", hhbc.OpGt: "1", hhbc.OpGte: "1",
		hhbc.OpEq: "", hhbc.OpNeq: "1", hhbc.OpSame: "", hhbc.OpNSame: "1",
	}
	for op, w := range want {
		r, err := interp.Binop(h, op, five, two)
		if err != nil || r.ToString() != w {
			t.Errorf("5 %s 2 = %q, %v; want %q", op, r.ToString(), err, w)
		}
	}
	for _, op := range []hhbc.Op{hhbc.OpDiv, hhbc.OpMod} {
		if _, err := interp.Binop(h, op, five, runtime.Int(0)); err == nil {
			t.Errorf("5 %s 0 must raise", op)
		}
	}
	if _, err := interp.Binop(h, hhbc.OpPrint, five, two); err == nil {
		t.Error("a non-operator opcode must be rejected")
	}
	// Operands are borrowed, the result is owned.
	a, b := h.NewStr("x"), h.NewStr("y")
	r, _ := interp.Binop(h, hhbc.OpAdd, a, b)
	if a.AsStr().Refs() != 1 || b.AsStr().Refs() != 1 || r.ToString() != "0" {
		t.Errorf("\"x\" + \"y\" = %s with refs %d %d", r.ToString(), a.AsStr().Refs(), b.AsStr().Refs())
	}
}

func TestIteratorsOverEveryKind(t *testing.T) {
	env, _ := newEnv(t, opsSrc)
	h := env.Heap
	f, _ := env.FuncByName("two")
	for name, v := range eachKind(env) {
		fr := env.TakeFrame(f, nil, []runtime.Value{v, runtime.Null()})
		started := fr.IterInit(h, 0, 0)
		if started != (name == "Arr") {
			t.Errorf("IterInit over %s = %v", name, started)
		}
		if !started && (len(fr.Iters) > 0 && fr.Iters[0].Arr() != nil) {
			t.Errorf("IterInit over %s left an iterator behind", name)
		}
		fr.IterFree(h, 0) // freeing a free iterator is a no-op
		fr.Release(env)
		env.PutFrame(fr)
	}
	// An empty array starts no iteration either.
	fr := env.TakeFrame(f, nil, []runtime.Value{runtime.ArrV(h.NewMixed(0)), runtime.Null()})
	if fr.IterInit(h, 0, 0) {
		t.Error("IterInit over an empty array must report nothing to iterate")
	}
	fr.Release(env)
	env.PutFrame(fr)

	// Walk a two-element mixed array holding a counted value.
	el := h.NewStr("payload")
	arr := h.NewMixed(0)
	arr = arr.Set(h, h.NewStr("k"), el)
	arr = arr.Set(h, runtime.Int(7), runtime.Int(70))
	fr = env.TakeFrame(f, nil, []runtime.Value{runtime.ArrV(arr), runtime.Null()})
	if !fr.IterInit(h, 1, 0) || arr.Refs() != 2 {
		t.Fatalf("IterInit: refs = %d, want the iterator to hold its own reference", arr.Refs())
	}
	k, v := fr.IterKey(h, 1), fr.IterValue(h, 1)
	if k.ToString() != "k" || v.AsStr() != el.AsStr() || el.AsStr().Refs() != 2 {
		t.Errorf("first entry %s => %s, value refs = %d (want an owned reference)", k.ToString(), v.ToString(), el.AsStr().Refs())
	}
	h.DecRef(v)
	if !fr.IterNext(1) {
		t.Fatal("IterNext lost the second entry")
	}
	if k, v := fr.IterKey(h, 1), fr.IterValue(h, 1); k.AsInt() != 7 || v.AsInt() != 70 {
		t.Errorf("second entry %s => %s", k.ToString(), v.ToString())
	}
	if fr.IterNext(1) {
		t.Error("IterNext ran past the end")
	}
	if arr.Refs() != 2 {
		t.Errorf("an exhausted iterator keeps its array until IterFree: refs = %d", arr.Refs())
	}
	fr.IterFree(h, 1)
	if arr.Refs() != 1 || fr.IterNext(1) {
		t.Errorf("IterFree: refs = %d", arr.Refs())
	}
	fr.Release(env)
	env.PutFrame(fr)
}

func TestVerifyParamEveryKind(t *testing.T) {
	env, _ := newEnv(t, opsSrc)
	fn, _ := env.FuncByName("takes")
	// accepted[hint index] lists the kinds the hint admits.
	accepted := [][]string{
		{"Int"}, {"Dbl", "Int"}, {"Str"}, {"Bool"}, {"Arr"}, {"Obj"},
		{"Int", "Null", "Uninit"},
		{"Uninit", "Null", "Bool", "Int", "Dbl", "Str", "Arr", "Obj"},
	}
	for idx, ok := range accepted {
		for name, v := range eachKind(env) {
			slot := v
			err := env.VerifyParam(fn, idx, &slot)
			admitted := false
			for _, k := range ok {
				admitted = admitted || k == name
			}
			if admitted != (err == nil) {
				t.Errorf("param %d (%s) given %s: %v", idx, fn.Params[idx].TypeHint, name, err)
			}
			if err != nil {
				p := fn.Params[idx]
				want := "argument " + string(rune('1'+idx)) + " ($" + p.Name + ") of takes() must be of type " +
					p.TypeHint + ", " + v.Type().String() + " given"
				if err.Error() != want {
					t.Errorf("message %q, want %q", err.Error(), want)
				}
			}
			widened := idx == 1 && name == "Int"
			if widened != (slot.Kind != v.Kind) {
				t.Errorf("param %d given %s: slot became %s", idx, name, slot.DebugString())
			}
			if widened && slot.AsDbl() != 5 {
				t.Errorf("float hint widened 5 to %s", slot.DebugString())
			}
		}
	}
	plain, _ := env.ClassByName("Plain")
	slot := runtime.ObjV(env.NewInstance(plain))
	if err := env.VerifyParam(fn, 5, &slot); err == nil {
		t.Error("a Plain passed for a Box hint")
	}
}

func TestCallBuiltinArityCostAndRelease(t *testing.T) {
	env, _ := newEnv(t, opsSrc)
	meter := &countingMeter{}
	env.Meter = meter
	strlen, _ := runtime.LookupBuiltin("strlen")

	arg := env.Heap.NewStr("abc")
	env.Heap.IncRef(arg) // our handle; the call consumes the other
	r, err := env.CallBuiltin(strlen, []runtime.Value{arg})
	if err != nil || r.AsInt() != 3 || meter.cycles != strlen.Cost || arg.AsStr().Refs() != 1 {
		t.Errorf("strlen(abc) = %s, %v; cycles %d (want %d); arg refs %d (want released)",
			r.DebugString(), err, meter.cycles, strlen.Cost, arg.AsStr().Refs())
	}
	for _, n := range []int{0, 2} {
		args := make([]runtime.Value, n)
		for i := range args {
			env.Heap.IncRef(arg)
			args[i] = arg
		}
		before := meter.cycles
		_, err := env.CallBuiltin(strlen, args)
		want := "strlen() expects 1 arguments, " + string(rune('0'+n)) + " given"
		if msg(err) != want || meter.cycles != before || arg.AsStr().Refs() != 1 {
			t.Errorf("strlen with %d args: %q (want %q), charged %d, arg refs %d",
				n, msg(err), want, meter.cycles-before, arg.AsStr().Refs())
		}
	}
}

func TestCallNamedResolution(t *testing.T) {
	env, _ := newEnv(t, opsSrc)
	h := env.Heap
	a, b := h.NewStr("x"), h.NewStr("y")
	if r, err := env.CallNamed("TWO", []runtime.Value{a, b}); err != nil || r.ToString() != "xy" {
		t.Errorf("user function by case-insensitive name: %s, %v", r.DebugString(), err)
	}
	if r, err := env.CallNamed("StrLen", []runtime.Value{h.NewStr("four")}); err != nil || r.AsInt() != 4 {
		t.Errorf("native by case-insensitive name: %s, %v", r.DebugString(), err)
	}
	arg := h.NewStr("arg")
	env.Heap.IncRef(arg)
	_, err := env.CallNamed("NoSuch", []runtime.Value{arg})
	if msg(err) != "call to undefined function NoSuch()" || arg.AsStr().Refs() != 1 {
		t.Errorf("undefined: %q, arg refs %d (want released)", msg(err), arg.AsStr().Refs())
	}
}

func TestResolveMethodEveryKind(t *testing.T) {
	env, _ := newEnv(t, opsSrc)
	for name, v := range eachKind(env) {
		f, err := env.ResolveMethod(v, "get")
		if name == "Obj" {
			if err != nil || f == nil || f.FullName() != "Box::get" {
				t.Errorf("Box->get resolved to %v, %v", f, err)
			}
			continue
		}
		if want := "method call on non-object (" + v.Type().String() + ")"; f != nil || msg(err) != want {
			t.Errorf("%s->get(): %q, want %q", name, msg(err), want)
		}
	}
	obj := eachKind(env)["Obj"]
	if f, err := env.ResolveMethod(obj, "GET"); err != nil || f == nil {
		t.Errorf("method names are case-insensitive: %v", err)
	}
	if f, err := env.ResolveMethod(obj, "__construct"); f != nil || err != nil {
		t.Errorf("implicit default constructor: %v, %v; want (nil, nil)", f, err)
	}
	if f, err := env.ResolveMethod(obj, "nosuch"); f != nil || msg(err) != "call to undefined method Box::nosuch()" {
		t.Errorf("undefined method: %v, %q", f, msg(err))
	}
	if obj.AsObj().Refs() != 1 {
		t.Errorf("ResolveMethod changed the receiver's refcount: %d", obj.AsObj().Refs())
	}
}

func TestNewObjectPrintThisDepth(t *testing.T) {
	env, out := newEnv(t, opsSrc)
	o, err := env.NewObject("Box")
	if err != nil || o.Kind != types.KObj || o.AsObj().Class.Name != "Box" || o.AsObj().Refs() != 1 {
		t.Errorf("new Box = %s, %v", o.DebugString(), err)
	}
	if _, err := env.NewObject("Nope"); msg(err) != "class Nope not found" {
		t.Errorf("new Nope: %q", msg(err))
	}

	for _, v := range []runtime.Value{runtime.Null(), runtime.Bool(true), runtime.Int(5), runtime.Dbl(2.5), env.Heap.NewStr("s"), o} {
		env.Print(v)
	}
	if out.String() != "152.5sObject(Box)" {
		t.Errorf("printed %q", out.String())
	}
	env.Out = nil
	env.Print(runtime.Int(1)) // no output stream: nothing to do, nothing to crash

	f, _ := env.FuncByName("two")
	fr := env.TakeFrame(f, nil, nil)
	if _, err := fr.ThisObj(); msg(err) != "using $this outside object context" {
		t.Errorf("$this in a function: %q", msg(err))
	}
	fr.This = o.AsObj()
	if v, err := fr.ThisObj(); err != nil || v.AsObj() != o.AsObj() || o.AsObj().Refs() != 1 {
		t.Errorf("$this = %s, %v, refs %d (want borrowed)", v.DebugString(), err, o.AsObj().Refs())
	}
	fr.This = nil
	env.PutFrame(fr)

	arg := env.Heap.NewStr("a")
	env.Heap.IncRef(arg)
	if err := env.CheckDepth(env.MaxDepth-1, []runtime.Value{arg}); err != nil || arg.AsStr().Refs() != 2 {
		t.Errorf("below the limit: %v, arg refs %d", err, arg.AsStr().Refs())
	}
	if err := env.CheckDepth(env.MaxDepth, []runtime.Value{arg}); msg(err) != "maximum call depth exceeded" || arg.AsStr().Refs() != 1 {
		t.Errorf("at the limit: %q, arg refs %d (want released)", msg(err), arg.AsStr().Refs())
	}
}

func TestUnwindEntersHandlerOrReleases(t *testing.T) {
	env, _ := newEnv(t, opsSrc)
	h := env.Heap
	guarded, _ := env.FuncByName("guarded")
	if len(guarded.EHTable) == 0 {
		t.Fatal("guarded() has no handler")
	}
	eh := guarded.EHTable[0]

	// Inside the protected range: stack dropped, a fatal becomes a
	// catchable Exception carrying the message, pc at the handler.
	local, stacked := h.NewStr("local"), h.NewStr("stacked")
	h.IncRef(local)
	h.IncRef(stacked)
	fr := env.TakeFrame(guarded, nil, []runtime.Value{local})
	fr.Stack = append(fr.Stack, stacked)
	if err := env.Unwind(fr, eh.Start, runtime.NewError("boom")); err != nil {
		t.Fatalf("Unwind inside try: %v", err)
	}
	if fr.PC != eh.Handler || len(fr.Stack) != 0 || stacked.AsStr().Refs() != 1 || local.AsStr().Refs() != 2 {
		t.Errorf("handler entry: pc %d (want %d), stack %d, stacked refs %d, local refs %d",
			fr.PC, eh.Handler, len(fr.Stack), stacked.AsStr().Refs(), local.AsStr().Refs())
	}
	// The handler's Catch finds the exception: run it to the `return 0`.
	if v, err := env.Run(fr); err != nil || v.AsInt() != 0 {
		t.Errorf("handler ran to %s, %v", v.DebugString(), err)
	}
	if h.LiveObjs != 0 || local.AsStr().Refs() != 1 {
		t.Errorf("after the handler: %d live objects, local refs %d", h.LiveObjs, local.AsStr().Refs())
	}
	env.PutFrame(fr)

	// A thrown object is delivered as is, not re-wrapped.
	exc := env.NewException("RuntimeException", "mine")
	fr = env.TakeFrame(guarded, nil, nil)
	if err := env.Unwind(fr, eh.Start, runtime.Thrown(exc)); err != nil {
		t.Fatal(err)
	}
	if v, err := env.Run(fr); err != nil || v.AsInt() != 0 || h.LiveObjs != 0 {
		t.Errorf("thrown object: %s, %v, %d live", v.DebugString(), err, h.LiveObjs)
	}
	env.PutFrame(fr)

	// Outside any handler: the frame is released and the error returned.
	h.IncRef(local)
	h.IncRef(stacked)
	fr = env.TakeFrame(guarded, nil, []runtime.Value{local})
	fr.Stack = append(fr.Stack, stacked)
	cause := runtime.NewError("out")
	if err := env.Unwind(fr, len(guarded.Instrs)-1, cause); err != cause {
		t.Errorf("Unwind outside try returned %v, want the error itself", err)
	}
	if local.AsStr().Refs() != 1 || stacked.AsStr().Refs() != 1 || len(fr.Stack) != 0 {
		t.Errorf("unhandled: local refs %d, stacked refs %d", local.AsStr().Refs(), stacked.AsStr().Refs())
	}
	env.PutFrame(fr)
}
