package interp

import (
	"fmt"

	"repro/internal/hhbc"
	"repro/internal/runtime"
	"repro/internal/types"
)

// Cost model: every interpreted bytecode pays a dispatch overhead (the
// threaded-interpreter fetch/decode/indirect-branch) plus the
// handler's own work. JITed code eliminates the dispatch and shrinks
// the work via specialization, which is where the interp-vs-JIT gap in
// Figure 8 comes from.
const dispatchCost = 58

func opWorkCost(op hhbc.Op) uint64 {
	switch op {
	case hhbc.OpNop, hhbc.OpAssertRATL, hhbc.OpAssertRAStk:
		return 0
	case hhbc.OpInt, hhbc.OpDouble, hhbc.OpTrue, hhbc.OpFalse, hhbc.OpNull, hhbc.OpString:
		return 2
	case hhbc.OpCGetL, hhbc.OpCGetL2, hhbc.OpPopL, hhbc.OpSetL, hhbc.OpPushL, hhbc.OpPopC, hhbc.OpDup:
		return 4
	case hhbc.OpIncDecL, hhbc.OpIsTypeL, hhbc.OpUnsetL:
		return 5
	case hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul, hhbc.OpNeg:
		return 6
	case hhbc.OpDiv, hhbc.OpMod:
		return 10
	case hhbc.OpConcat:
		return 24
	case hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte, hhbc.OpEq, hhbc.OpNeq,
		hhbc.OpSame, hhbc.OpNSame, hhbc.OpNot:
		return 6
	case hhbc.OpCastBool, hhbc.OpCastInt, hhbc.OpCastDouble:
		return 5
	case hhbc.OpCastString:
		return 18
	case hhbc.OpJmp, hhbc.OpJmpZ, hhbc.OpJmpNZ:
		return 2
	case hhbc.OpSwitch:
		return 5
	case hhbc.OpRetC:
		return 8
	case hhbc.OpThrow, hhbc.OpCatch, hhbc.OpFatal:
		return 30
	case hhbc.OpNewArray, hhbc.OpNewPackedArray:
		return 20
	case hhbc.OpAddElemC, hhbc.OpAddNewElemC:
		return 12
	case hhbc.OpArrIdx, hhbc.OpArrGetL:
		return 10
	case hhbc.OpArrSetL, hhbc.OpArrAppendL, hhbc.OpArrUnsetL:
		return 14
	case hhbc.OpAKExistsL:
		return 8
	case hhbc.OpIterInitL:
		return 14
	case hhbc.OpIterNext, hhbc.OpIterKey, hhbc.OpIterValue:
		return 6
	case hhbc.OpIterFree:
		return 4
	case hhbc.OpFCallD, hhbc.OpFCallObjMethodD:
		return 44 // ActRec setup + frame push + dispatch
	case hhbc.OpFCallBuiltin:
		return 12
	case hhbc.OpNewObjD:
		return 25
	case hhbc.OpThis:
		return 3
	case hhbc.OpCGetPropD, hhbc.OpSetPropD:
		return 12
	case hhbc.OpInstanceOfD:
		return 8
	case hhbc.OpVerifyParamType:
		return 5
	case hhbc.OpPrint:
		return 15
	default:
		return 5
	}
}

// interpCall is the default CallHook: interpret f from its entry.
func (e *Env) interpCall(f *hhbc.Func, this *runtime.Object, args []runtime.Value) (runtime.Value, error) {
	if e.OnEnter != nil {
		e.OnEnter(f)
	}
	if e.depth >= e.MaxDepth {
		for _, a := range args {
			e.Heap.DecRef(a)
		}
		return runtime.Null(), runtime.NewError("maximum call depth exceeded")
	}
	fr := e.TakeFrame(f, this, args)
	e.depth++
	v, err := e.Run(fr)
	e.depth--
	e.PutFrame(fr)
	return v, err
}

// Run executes fr from fr.PC until return or uncaught error. It is
// the OSR entry: JITed side exits resume interpretation here with a
// materialized frame.
func (e *Env) Run(fr *Frame) (runtime.Value, error) {
	for {
		v, err := e.step(fr)
		if err == nil {
			if fr.PC < 0 { // returned
				return v, nil
			}
			continue
		}
		if err == ErrOSR {
			return runtime.Null(), err
		}
		// Unwind to a handler in this frame, or out.
		handler := fr.Fn.HandlerFor(fr.PC)
		if handler < 0 {
			fr.Release(e)
			return runtime.Null(), err
		}
		obj := e.toThrownObject(err)
		fr.clearStack(e)
		fr.pendingExc = obj
		fr.PC = handler
	}
}

// step executes instructions until a call returns, the function
// returns (fr.PC = -1), or an error is raised. Splitting the hot loop
// this way keeps error unwinding out of the common path.
func (e *Env) step(fr *Frame) (runtime.Value, error) {
	u := e.Unit
	h := e.Heap
	for {
		in := fr.Fn.Instrs[fr.PC]
		if e.Meter != nil {
			e.Meter.Charge(dispatchCost + opWorkCost(in.Op))
		}
		switch in.Op {
		case hhbc.OpNop, hhbc.OpAssertRATL, hhbc.OpAssertRAStk, hhbc.OpIncProfCounter:
			// no effect

		case hhbc.OpInt:
			fr.push(runtime.Int(u.Ints[in.A]))
		case hhbc.OpDouble:
			fr.push(runtime.Dbl(u.Doubles[in.A]))
		case hhbc.OpString:
			fr.push(runtime.StrV(runtime.InternStr(u.Strings[in.A])))
		case hhbc.OpTrue:
			fr.push(runtime.Bool(true))
		case hhbc.OpFalse:
			fr.push(runtime.Bool(false))
		case hhbc.OpNull:
			fr.push(runtime.Null())

		case hhbc.OpPopC:
			h.DecRef(fr.pop())
		case hhbc.OpDup:
			v := fr.top()
			h.IncRef(v)
			fr.push(v)

		case hhbc.OpCGetL:
			v := fr.Locals[in.A]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			h.IncRef(v)
			fr.push(v)
		case hhbc.OpCGetL2:
			v := fr.Locals[in.A]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			h.IncRef(v)
			top := fr.pop()
			fr.push(v)
			fr.push(top)
		case hhbc.OpPopL:
			old := fr.Locals[in.A]
			fr.Locals[in.A] = fr.pop()
			h.DecRef(old)
		case hhbc.OpSetL:
			v := fr.top()
			h.IncRef(v)
			old := fr.Locals[in.A]
			fr.Locals[in.A] = v
			h.DecRef(old)
		case hhbc.OpPushL:
			fr.push(fr.Locals[in.A])
			fr.Locals[in.A] = runtime.Uninit()
		case hhbc.OpUnsetL:
			h.DecRef(fr.Locals[in.A])
			fr.Locals[in.A] = runtime.Uninit()
		case hhbc.OpIsTypeL:
			fr.push(runtime.Bool(int32(fr.Locals[in.A].Kind)&in.B != 0))
		case hhbc.OpIncDecL:
			v, err := e.incDecL(fr, in)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(v)

		case hhbc.OpAdd:
			b, a := fr.pop(), fr.pop()
			r, err := runtime.Add(h, a, b)
			h.DecRef(a)
			h.DecRef(b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpSub:
			b, a := fr.pop(), fr.pop()
			r, err := runtime.Sub(a, b)
			h.DecRef(a)
			h.DecRef(b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpMul:
			b, a := fr.pop(), fr.pop()
			r, err := runtime.Mul(a, b)
			h.DecRef(a)
			h.DecRef(b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpDiv:
			b, a := fr.pop(), fr.pop()
			r, err := runtime.Div(a, b)
			h.DecRef(a)
			h.DecRef(b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpMod:
			b, a := fr.pop(), fr.pop()
			r, err := runtime.Mod(a, b)
			h.DecRef(a)
			h.DecRef(b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpConcat:
			b, a := fr.pop(), fr.pop()
			r := runtime.Concat(a, b)
			h.DecRef(a)
			h.DecRef(b)
			fr.push(r)
		case hhbc.OpNeg:
			a := fr.pop()
			if a.Kind == types.KDbl {
				fr.push(runtime.Dbl(-a.AsDbl()))
			} else {
				fr.push(runtime.Int(-a.ToInt()))
			}
			h.DecRef(a)

		case hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte:
			b, a := fr.pop(), fr.pop()
			c := runtime.Cmp(a, b)
			h.DecRef(a)
			h.DecRef(b)
			var r bool
			switch in.Op {
			case hhbc.OpGt:
				r = c > 0
			case hhbc.OpGte:
				r = c >= 0
			case hhbc.OpLt:
				r = c < 0
			case hhbc.OpLte:
				r = c <= 0
			}
			fr.push(runtime.Bool(r))
		case hhbc.OpEq, hhbc.OpNeq:
			b, a := fr.pop(), fr.pop()
			r := runtime.LooseEq(a, b)
			h.DecRef(a)
			h.DecRef(b)
			fr.push(runtime.Bool(r == (in.Op == hhbc.OpEq)))
		case hhbc.OpSame, hhbc.OpNSame:
			b, a := fr.pop(), fr.pop()
			r := runtime.StrictEq(a, b)
			h.DecRef(a)
			h.DecRef(b)
			fr.push(runtime.Bool(r == (in.Op == hhbc.OpSame)))
		case hhbc.OpNot:
			a := fr.pop()
			fr.push(runtime.Bool(!a.Bool()))
			h.DecRef(a)

		case hhbc.OpCastBool:
			a := fr.pop()
			fr.push(runtime.Bool(a.Bool()))
			h.DecRef(a)
		case hhbc.OpCastInt:
			a := fr.pop()
			fr.push(runtime.Int(a.ToInt()))
			h.DecRef(a)
		case hhbc.OpCastDouble:
			a := fr.pop()
			fr.push(runtime.Dbl(a.ToDbl()))
			h.DecRef(a)
		case hhbc.OpCastString:
			a := fr.pop()
			if a.Kind == types.KStr {
				fr.push(a)
			} else {
				fr.push(runtime.NewStr(a.ToString()))
				h.DecRef(a)
			}

		case hhbc.OpJmp:
			if int(in.A) <= fr.PC && e.OSRCheck != nil && len(fr.Stack) == 0 {
				fr.PC = int(in.A)
				if e.OSRCheck(fr) {
					return runtime.Null(), ErrOSR
				}
				continue
			}
			fr.PC = int(in.A)
			continue
		case hhbc.OpJmpZ:
			v := fr.pop()
			b := v.Bool()
			h.DecRef(v)
			if !b {
				fr.PC = int(in.A)
				continue
			}
		case hhbc.OpJmpNZ:
			v := fr.pop()
			b := v.Bool()
			h.DecRef(v)
			if b {
				if int(in.A) <= fr.PC && e.OSRCheck != nil && len(fr.Stack) == 0 {
					fr.PC = int(in.A)
					if e.OSRCheck(fr) {
						return runtime.Null(), ErrOSR
					}
					continue
				}
				fr.PC = int(in.A)
				continue
			}
		case hhbc.OpSwitch:
			v := fr.pop()
			i := v.ToInt()
			h.DecRef(v)
			sw := fr.Fn.Switches[in.A]
			if i >= sw.Base && i < sw.Base+int64(len(sw.Targets)) {
				fr.PC = sw.Targets[i-sw.Base]
			} else {
				fr.PC = sw.Default
			}
			continue

		case hhbc.OpRetC:
			ret := fr.pop()
			fr.Release(e)
			fr.PC = -1
			return ret, nil

		case hhbc.OpThrow:
			v := fr.pop()
			if v.Kind != types.KObj {
				h.DecRef(v)
				return runtime.Null(), runtime.NewError("can only throw objects")
			}
			return runtime.Null(), runtime.Thrown(v.AsObj())
		case hhbc.OpCatch:
			if fr.pendingExc == nil {
				return runtime.Null(), runtime.NewError("Catch with no pending exception")
			}
			fr.push(runtime.ObjV(fr.pendingExc))
			fr.pendingExc = nil
		case hhbc.OpFatal:
			return runtime.Null(), runtime.NewError("%s", u.Strings[in.A])

		case hhbc.OpNewArray:
			fr.push(runtime.ArrV(runtime.NewMixed()))
		case hhbc.OpNewPackedArray:
			n := int(in.A)
			elems := make([]runtime.Value, n)
			copy(elems, fr.Stack[len(fr.Stack)-n:])
			fr.Stack = fr.Stack[:len(fr.Stack)-n]
			fr.push(runtime.ArrV(runtime.NewPacked(elems)))
		case hhbc.OpAddElemC:
			val, key, arrv := fr.pop(), fr.pop(), fr.pop()
			if arrv.Kind != types.KArr {
				h.DecRef(val)
				h.DecRef(key)
				h.DecRef(arrv)
				return runtime.Null(), runtime.NewError("AddElemC on non-array")
			}
			na := arrv.AsArr().Set(h, key, val)
			h.DecRef(key)
			fr.push(runtime.ArrV(na))
		case hhbc.OpAddNewElemC:
			val, arrv := fr.pop(), fr.pop()
			if arrv.Kind != types.KArr {
				h.DecRef(val)
				h.DecRef(arrv)
				return runtime.Null(), runtime.NewError("AddNewElemC on non-array")
			}
			fr.push(runtime.ArrV(arrv.AsArr().Append(h, val)))

		case hhbc.OpArrIdx:
			key, arrv := fr.pop(), fr.pop()
			if arrv.Kind != types.KArr {
				h.DecRef(key)
				h.DecRef(arrv)
				return runtime.Null(), runtime.NewError("cannot index non-array")
			}
			el, _ := arrv.AsArr().Get(key)
			if el.Kind == types.KUninit {
				el = runtime.Null()
			}
			h.IncRef(el)
			h.DecRef(key)
			h.DecRef(arrv)
			fr.push(el)
		case hhbc.OpArrGetL:
			key := fr.pop()
			lv := fr.Locals[in.A]
			if lv.Kind != types.KArr {
				h.DecRef(key)
				return runtime.Null(), runtime.NewError("cannot index non-array local $%s",
					localName(fr.Fn, in.A))
			}
			el, _ := lv.AsArr().Get(key)
			if el.Kind == types.KUninit {
				el = runtime.Null()
			}
			h.IncRef(el)
			h.DecRef(key)
			fr.push(el)
		case hhbc.OpArrSetL:
			key, val := fr.pop(), fr.pop()
			lv := fr.Locals[in.A]
			if lv.Kind == types.KUninit || lv.Kind == types.KNull {
				// Auto-vivify: $a[k] = v on an unset local makes an array.
				lv = runtime.ArrV(runtime.NewMixed())
				fr.Locals[in.A] = lv
			}
			if lv.Kind != types.KArr {
				h.DecRef(key)
				h.DecRef(val)
				return runtime.Null(), runtime.NewError("cannot write index of non-array")
			}
			fr.Locals[in.A] = runtime.ArrV(lv.AsArr().Set(h, key, val))
			h.DecRef(key)
		case hhbc.OpArrAppendL:
			val := fr.pop()
			lv := fr.Locals[in.A]
			if lv.Kind == types.KUninit || lv.Kind == types.KNull {
				lv = runtime.ArrV(runtime.NewPacked(nil))
				fr.Locals[in.A] = lv
			}
			if lv.Kind != types.KArr {
				h.DecRef(val)
				return runtime.Null(), runtime.NewError("cannot append to non-array")
			}
			fr.Locals[in.A] = runtime.ArrV(lv.AsArr().Append(h, val))
		case hhbc.OpArrUnsetL:
			key := fr.pop()
			lv := fr.Locals[in.A]
			if lv.Kind == types.KArr {
				fr.Locals[in.A] = runtime.ArrV(lv.AsArr().Remove(h, key))
			}
			h.DecRef(key)
		case hhbc.OpAKExistsL:
			key := fr.pop()
			lv := fr.Locals[in.A]
			ok := false
			if lv.Kind == types.KArr {
				_, ok = lv.AsArr().Get(key)
			}
			h.DecRef(key)
			fr.push(runtime.Bool(ok))

		case hhbc.OpIterInitL:
			lv := fr.Locals[in.C]
			if lv.Kind != types.KArr || lv.AsArr().Len() == 0 {
				fr.PC = int(in.B)
				continue
			}
			h.IncRef(lv)
			fr.setIter(in.A, runtime.NewIter(lv.AsArr()))
		case hhbc.OpIterNext:
			it := fr.iter(in.A)
			if it != nil && it.Next() {
				fr.PC = int(in.B)
				continue
			}
			// exhausted: fall through to IterFree
		case hhbc.OpIterKey:
			it := fr.iter(in.A)
			k := it.Key()
			h.IncRef(k)
			fr.push(k)
		case hhbc.OpIterValue:
			it := fr.iter(in.A)
			v := it.Val()
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			h.IncRef(v)
			fr.push(v)
		case hhbc.OpIterFree:
			it := fr.iter(in.A)
			if it != nil {
				h.DecRef(runtime.ArrV(it.Arr()))
				fr.setIter(in.A, nil)
			}

		case hhbc.OpFCallD:
			name := u.Strings[in.B]
			ret, err := e.fcallD(fr, name, int(in.A))
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)
		case hhbc.OpFCallBuiltin:
			ret, err := e.fcallBuiltin(fr, u.Strings[in.B], int(in.A))
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)
		case hhbc.OpFCallObjMethodD:
			ret, err := e.fcallMethod(fr, u.Strings[in.B], int(in.A))
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)

		case hhbc.OpNewObjD:
			cls, ok := e.Classes[u.Strings[in.A]]
			if !ok {
				return runtime.Null(), runtime.NewError("class %s not found", u.Strings[in.A])
			}
			fr.push(runtime.ObjV(e.NewInstance(cls)))
		case hhbc.OpThis:
			if fr.This == nil {
				return runtime.Null(), runtime.NewError("using $this outside object context")
			}
			v := runtime.ObjV(fr.This)
			h.IncRef(v)
			fr.push(v)
		case hhbc.OpCGetPropD:
			ov := fr.pop()
			if ov.Kind != types.KObj {
				h.DecRef(ov)
				return runtime.Null(), runtime.NewError("property access on non-object")
			}
			p := runtime.GetPropNamed(h, ov.AsObj(), u.Strings[in.A])
			h.DecRef(ov)
			fr.push(p)
		case hhbc.OpSetPropD:
			val, ov := fr.pop(), fr.pop()
			if ov.Kind != types.KObj {
				h.DecRef(val)
				h.DecRef(ov)
				return runtime.Null(), runtime.NewError("property write on non-object")
			}
			h.IncRef(val) // one ref into the prop, one back on the stack
			if err := runtime.SetPropNamed(h, ov.AsObj(), u.Strings[in.A], val); err != nil {
				h.DecRef(val)
				h.DecRef(ov)
				return runtime.Null(), runtime.NewError("%s", err.Error())
			}
			h.DecRef(ov)
			fr.push(val)
		case hhbc.OpInstanceOfD:
			v := fr.pop()
			r := v.Kind == types.KObj && v.AsObj().Class.IsSubclassOf(u.Strings[in.A])
			h.DecRef(v)
			fr.push(runtime.Bool(r))
		case hhbc.OpVerifyParamType:
			if err := e.verifyParam(fr, int(in.A)); err != nil {
				return runtime.Null(), err
			}

		case hhbc.OpPrint:
			v := fr.pop()
			if e.Out != nil {
				fmt.Fprint(e.Out, v.ToString())
			}
			h.DecRef(v)
			fr.push(runtime.Int(1))

		default:
			return runtime.Null(), runtime.NewError("unimplemented opcode %s", in.Op)
		}
		fr.PC++
	}
}

func localName(f *hhbc.Func, slot int32) string {
	if int(slot) < len(f.LocalName) {
		return f.LocalName[slot]
	}
	return fmt.Sprintf("<%d>", slot)
}

func (e *Env) incDecL(fr *Frame, in hhbc.Instr) (runtime.Value, error) {
	lv := fr.Locals[in.A]
	var oldv, newv runtime.Value
	switch lv.Kind {
	case types.KInt:
		oldv = lv
		delta := int64(1)
		if in.B == hhbc.PreDec || in.B == hhbc.PostDec {
			delta = -1
		}
		newv = runtime.Int(lv.AsInt() + delta)
	case types.KDbl:
		oldv = lv
		delta := 1.0
		if in.B == hhbc.PreDec || in.B == hhbc.PostDec {
			delta = -1
		}
		newv = runtime.Dbl(lv.AsDbl() + delta)
	case types.KNull, types.KUninit:
		oldv = runtime.Null()
		if in.B == hhbc.PreInc || in.B == hhbc.PostInc {
			newv = runtime.Int(1) // PHP: null++ is 1, null-- stays null
		} else {
			newv = runtime.Null()
		}
	default:
		return runtime.Null(), runtime.NewError("cannot increment/decrement %s", lv.Type())
	}
	fr.Locals[in.A] = newv
	if in.B == hhbc.PostInc || in.B == hhbc.PostDec {
		return oldv, nil
	}
	return newv, nil
}

// popArgs pops n call arguments. The returned slice aliases the stack
// slots just vacated: it is valid until the caller's next push, which
// is after the call returns — callees copy arguments into their own
// frame and never touch the caller's stack.
func (e *Env) popArgs(fr *Frame, n int) []runtime.Value {
	args := fr.Stack[len(fr.Stack)-n:]
	fr.Stack = fr.Stack[:len(fr.Stack)-n]
	return args
}

func (e *Env) fcallD(fr *Frame, name string, nargs int) (runtime.Value, error) {
	args := e.popArgs(fr, nargs)
	if f, ok := e.Unit.FuncByName(name); ok {
		return e.Call(f, nil, args)
	}
	// Fall back to a builtin of the same name.
	if b, ok := runtime.LookupBuiltin(lowerName(name)); ok {
		return e.callBuiltin(b, args)
	}
	for _, a := range args {
		e.Heap.DecRef(a)
	}
	return runtime.Null(), runtime.NewError("call to undefined function %s()", name)
}

func (e *Env) fcallBuiltin(fr *Frame, name string, nargs int) (runtime.Value, error) {
	args := e.popArgs(fr, nargs)
	b, ok := runtime.LookupBuiltin(name)
	if !ok {
		// A user function may shadow an unknown builtin reference.
		if f, okf := e.Unit.FuncByName(name); okf {
			return e.Call(f, nil, args)
		}
		for _, a := range args {
			e.Heap.DecRef(a)
		}
		return runtime.Null(), runtime.NewError("call to undefined builtin %s()", name)
	}
	return e.callBuiltin(b, args)
}

func (e *Env) callBuiltin(b *runtime.Builtin, args []runtime.Value) (runtime.Value, error) {
	if b.Arity >= 0 && len(args) != b.Arity {
		for _, a := range args {
			e.Heap.DecRef(a)
		}
		return runtime.Null(), runtime.NewError("%s() expects %d arguments, %d given",
			b.Name, b.Arity, len(args))
	}
	if e.Meter != nil {
		e.Meter.Charge(b.Cost)
	}
	ret, err := b.Fn(e.BuiltinCtx(), args)
	for _, a := range args {
		e.Heap.DecRef(a)
	}
	return ret, err
}

func (e *Env) fcallMethod(fr *Frame, name string, nargs int) (runtime.Value, error) {
	args := e.popArgs(fr, nargs)
	ov := fr.pop()
	if ov.Kind != types.KObj {
		for _, a := range args {
			e.Heap.DecRef(a)
		}
		e.Heap.DecRef(ov)
		return runtime.Null(), runtime.NewError("method call on non-object (%s)", ov.Type())
	}
	obj := ov.AsObj()
	id, ok := obj.Class.LookupMethod(lowerName(name))
	if !ok {
		e.Heap.DecRef(ov)
		if lowerName(name) == "__construct" {
			for _, a := range args {
				e.Heap.DecRef(a)
			}
			return runtime.Null(), nil // implicit default constructor
		}
		for _, a := range args {
			e.Heap.DecRef(a)
		}
		return runtime.Null(), runtime.NewError("call to undefined method %s::%s()",
			obj.Class.Name, name)
	}
	ret, err := e.Call(e.Unit.Funcs[id], obj, args)
	e.Heap.DecRef(ov)
	return ret, err
}

// VerifyParamHint re-checks a parameter's shallow type hint (used by
// the JIT's VerifyParam helper).
func (e *Env) VerifyParamHint(fr *Frame, idx int) error { return e.verifyParam(fr, idx) }

func (e *Env) verifyParam(fr *Frame, idx int) error {
	p := fr.Fn.Params[idx]
	v := fr.Locals[idx]
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
			fr.Locals[idx] = runtime.Dbl(float64(v.AsInt())) // PHP widens
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
		ok = v.Kind == types.KObj && v.AsObj().Class.IsSubclassOf(p.TypeHint)
	}
	if !ok {
		return runtime.NewError("argument %d ($%s) of %s() must be of type %s, %s given",
			idx+1, p.Name, fr.Fn.FullName(), p.TypeHint, v.Type())
	}
	return nil
}
