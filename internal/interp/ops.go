package interp

import (
	"io"
	"strings"

	"repro/internal/hhbc"
	"repro/internal/runtime"
	"repro/internal/types"
)

// This file holds the frame- and env-level guest operations: the one
// definition of each that the interpreter's step loop, the machine's
// out-of-line helpers and the VM's unwinder all call (value-level
// operations live in package runtime). Conventions as there: operands
// are borrowed, results are owned, call arguments are consumed.

// Binop evaluates a bytecode operator on two operands (Neg ignores
// b).
func Binop(h *runtime.Heap, op hhbc.Op, a, b runtime.Value) (runtime.Value, error) {
	switch op {
	case hhbc.OpAdd:
		return runtime.Add(h, a, b)
	case hhbc.OpSub:
		return runtime.Sub(a, b)
	case hhbc.OpMul:
		return runtime.Mul(a, b)
	case hhbc.OpDiv:
		return runtime.Div(a, b)
	case hhbc.OpMod:
		return runtime.Mod(a, b)
	case hhbc.OpNeg:
		return runtime.Neg(a), nil
	case hhbc.OpLt:
		return runtime.Bool(runtime.Compare(runtime.CondLT, a, b)), nil
	case hhbc.OpLte:
		return runtime.Bool(runtime.Compare(runtime.CondLE, a, b)), nil
	case hhbc.OpGt:
		return runtime.Bool(runtime.Compare(runtime.CondGT, a, b)), nil
	case hhbc.OpGte:
		return runtime.Bool(runtime.Compare(runtime.CondGE, a, b)), nil
	case hhbc.OpEq:
		return runtime.Bool(runtime.LooseEq(a, b)), nil
	case hhbc.OpNeq:
		return runtime.Bool(!runtime.LooseEq(a, b)), nil
	case hhbc.OpSame:
		return runtime.Bool(runtime.StrictEq(a, b)), nil
	case hhbc.OpNSame:
		return runtime.Bool(!runtime.StrictEq(a, b)), nil
	}
	return runtime.Null(), runtime.NewError("%s is not a binary operator", op)
}

// IterInit starts foreach iterator id over the array in local slot;
// false (nothing to iterate: not an array, or empty) leaves no
// iterator behind. The iterator holds its own reference to the array.
func (fr *Frame) IterInit(h *runtime.Heap, id, slot int32) bool {
	lv := fr.Locals[slot]
	if lv.Kind != types.KArr || lv.AsArr().Len() == 0 {
		return false
	}
	h.IncRef(lv)
	fr.setIter(id, lv.AsArr().Iter())
	return true
}

// IterNext advances iterator id and reports whether it still points
// at an element. An exhausted iterator stays allocated until IterFree.
func (fr *Frame) IterNext(id int32) bool {
	it := fr.iter(id)
	return it != nil && it.Next()
}

// IterKey and IterValue read the current entry.
func (fr *Frame) IterKey(h *runtime.Heap, id int32) runtime.Value {
	k := fr.iter(id).Key()
	h.IncRef(k)
	return k
}

func (fr *Frame) IterValue(h *runtime.Heap, id int32) runtime.Value {
	v := fr.iter(id).Val()
	if v.Kind == types.KUninit {
		v = runtime.Null()
	}
	h.IncRef(v)
	return v
}

// IterFree releases iterator id and its array reference; freeing a
// free iterator is a no-op.
func (fr *Frame) IterFree(h *runtime.Heap, id int32) {
	if it := fr.iter(id); it != nil {
		h.DecRef(runtime.ArrV(it.Arr()))
		*it = runtime.Iter{}
	}
}

// ThisObj reads $this, borrowed from the frame.
func (fr *Frame) ThisObj() (runtime.Value, error) {
	if fr.This == nil {
		return runtime.Null(), runtime.NewError("using $this outside object context")
	}
	return runtime.ObjV(fr.This), nil
}

// VerifyParam checks parameter idx of fn, held in *slot, against its
// shallow type hint. An int passed for a float hint is widened in
// place, as in PHP. fn is passed explicitly because the slot may
// belong to a callee the JIT inlined into another function's frame.
func (e *Env) VerifyParam(fn *hhbc.Func, idx int, slot *runtime.Value) error {
	p := fn.Params[idx]
	v := *slot
	if p.Nullable && v.IsNull() {
		return nil
	}
	ok := false
	switch p.TypeHint {
	case "int":
		ok = v.Kind == types.KInt
	case "float":
		ok = v.Kind == types.KDbl || v.Kind == types.KInt
		if v.Kind == types.KInt {
			*slot = runtime.Dbl(float64(v.AsInt()))
		}
	case "string":
		ok = v.Kind == types.KStr
	case "bool":
		ok = v.Kind == types.KBool
	case "array":
		ok = v.Kind == types.KArr
	case "":
		ok = true
	default: // class hint
		ok = e.InstanceOf(v, p.TypeHint)
	}
	if !ok {
		return runtime.NewError("argument %d ($%s) of %s() must be of type %s, %s given",
			idx+1, p.Name, fn.FullName(), p.TypeHint, v.Type())
	}
	return nil
}

// ReleaseArgs drops the references of call arguments no callee took.
func (e *Env) ReleaseArgs(args []runtime.Value) {
	for _, a := range args {
		e.Heap.DecRef(a)
	}
}

// CheckDepth bounds guest recursion for a dispatcher whose call depth
// is depth: at MaxDepth the call's arguments are released and the call
// raises.
func (e *Env) CheckDepth(depth int, args []runtime.Value) error {
	if depth < e.MaxDepth {
		return nil
	}
	e.ReleaseArgs(args)
	return runtime.NewError("maximum call depth exceeded")
}

// CallBuiltin invokes a native: arity check, the native's cycle
// cost, the call, and the release of the arguments (natives borrow
// them).
func (e *Env) CallBuiltin(b *runtime.Builtin, args []runtime.Value) (runtime.Value, error) {
	if b.Arity >= 0 && len(args) != b.Arity {
		e.ReleaseArgs(args)
		return runtime.Null(), runtime.NewError("%s() expects %d arguments, %d given",
			b.Name, b.Arity, len(args))
	}
	if e.Meter != nil {
		e.Meter.Charge(b.Cost)
	}
	ret, err := b.Fn(e.BuiltinCtx(), args)
	e.ReleaseArgs(args)
	return ret, err
}

// CallNamed resolves a call by name at run time: a user function
// wins, then a native of that (case-insensitive) name, else the call
// raises.
func (e *Env) CallNamed(name string, args []runtime.Value) (runtime.Value, error) {
	if f, ok := e.Unit.FuncByName(name); ok {
		return e.Call(f, nil, args)
	}
	if b, ok := runtime.LookupBuiltin(name); ok {
		return e.CallBuiltin(b, args)
	}
	e.ReleaseArgs(args)
	return runtime.Null(), runtime.NewError("call to undefined function %s()", name)
}

// ResolveMethod finds the method a call `recv->name(...)` runs. A nil
// function with a nil error is the implicit default constructor: the
// call does nothing and evaluates to null.
func (e *Env) ResolveMethod(recv runtime.Value, name string) (*hhbc.Func, error) {
	if recv.Kind != types.KObj {
		return nil, runtime.NewError("method call on non-object (%s)", recv.Type())
	}
	cls := recv.AsObj().Class
	if id, ok := cls.LookupMethod(name); ok {
		return e.Unit.Funcs[id], nil
	}
	if strings.EqualFold(name, "__construct") {
		return nil, nil
	}
	return nil, runtime.NewError("call to undefined method %s::%s()", cls.Name, name)
}

// NewObject implements `new name`.
func (e *Env) NewObject(name string) (runtime.Value, error) {
	cls, ok := e.Classes[name]
	if !ok {
		return runtime.Null(), runtime.NewError("class %s not found", name)
	}
	return runtime.ObjV(e.NewInstance(cls)), nil
}

// NewObjectOf is NewObject for a class resolved ahead of time: id is
// the ClassID of a linked class.
func (e *Env) NewObjectOf(id int) runtime.Value {
	return runtime.ObjV(e.NewInstance(e.classByID[id]))
}

// Print writes v the way echo renders it.
func (e *Env) Print(v runtime.Value) {
	if e.Out != nil {
		_, _ = io.WriteString(e.Out, v.ToString()) // guest output is best effort, as in PHP
	}
}

// Unwind handles err raised while fr executed bytecode pc. With a
// handler covering pc the frame is positioned to run it — evaluation
// stack dropped, the exception (runtime fatals become catchable
// Exception instances, as PHP's error handler allows) pending for the
// handler's Catch — and Unwind returns nil. Otherwise the frame is
// released and err comes back for the caller to propagate.
func (e *Env) Unwind(fr *Frame, pc int, err error) error {
	handler := fr.Fn.HandlerFor(pc)
	if handler < 0 {
		fr.Release(e)
		return err
	}
	obj := e.toThrownObject(err)
	fr.clearStack(e)
	fr.pendingExc = obj
	fr.PC = handler
	return nil
}
