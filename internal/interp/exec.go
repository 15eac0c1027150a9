package interp

import (
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

func opWorkCost(in hhbc.Instr) uint64 {
	switch in.Op {
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
	case hhbc.OpConcatN:
		return ConcatCost(int(in.A))
	case hhbc.OpConcatL:
		return ConcatCost(int(in.A) + 1) // the local is one more operand, extended in place or not
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

// ConcatCost is the work of concatenating n >= 2 operands, in either
// tier: the 24 this model always charged for two, plus a length and a
// copy per further operand — well under the call, allocation and
// refcounting of the second Concat it replaces (DESIGN.md §6).
func ConcatCost(n int) uint64 { return ConcatBaseCost + ConcatOperandCost*uint64(n) }

const (
	ConcatBaseCost    = 8
	ConcatOperandCost = 8
)

// interpCall is the default CallHook: interpret f from its entry.
func (e *Env) interpCall(f *hhbc.Func, this *runtime.Object, args []runtime.Value) (runtime.Value, error) {
	if e.OnEnter != nil {
		e.OnEnter(f)
	}
	if err := e.CheckDepth(e.depth, args); err != nil {
		return runtime.Null(), err
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
		if herr := e.Unwind(fr, fr.PC, err); herr != nil {
			return runtime.Null(), herr
		}
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
			e.Meter.Charge(dispatchCost + opWorkCost(in))
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
			v, err := runtime.IncDec(&fr.Locals[in.A],
				in.B == hhbc.PreInc || in.B == hhbc.PostInc,
				in.B == hhbc.PostInc || in.B == hhbc.PostDec)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(v)

		case hhbc.OpConcatN:
			parts := fr.popArgs(int(in.A))
			r := runtime.Concat(h, parts)
			e.ReleaseArgs(parts)
			fr.push(r)
		case hhbc.OpConcatL:
			parts := fr.popArgs(int(in.A))
			runtime.ConcatAppend(h, &fr.Locals[in.B], parts)
			e.ReleaseArgs(parts)

		case hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul, hhbc.OpDiv, hhbc.OpMod,
			hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte,
			hhbc.OpEq, hhbc.OpNeq, hhbc.OpSame, hhbc.OpNSame:
			b, a := fr.pop(), fr.pop()
			r, err := Binop(h, in.Op, a, b)
			h.DecRef(a)
			h.DecRef(b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpNeg:
			a := fr.pop()
			fr.push(runtime.Neg(a))
			h.DecRef(a)
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
			fr.push(runtime.ToStr(h, a))
			h.DecRef(a)

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
			return runtime.Null(), runtime.ThrowValue(h, fr.pop())
		case hhbc.OpCatch:
			if fr.pendingExc == nil {
				return runtime.Null(), runtime.NewError("Catch with no pending exception")
			}
			fr.push(runtime.ObjV(fr.pendingExc))
			fr.pendingExc = nil
		case hhbc.OpFatal:
			return runtime.Null(), runtime.NewError("%s", u.Strings[in.A])

		case hhbc.OpNewArray:
			fr.push(runtime.ArrV(h.NewMixed(int(in.A))))
		case hhbc.OpNewPackedArray:
			base := len(fr.Stack) - int(in.A)
			arr := h.NewPackedOf(fr.Stack[base:])
			fr.Stack = fr.Stack[:base]
			fr.push(runtime.ArrV(arr))
		case hhbc.OpAddElemC:
			val, key, arrv := fr.pop(), fr.pop(), fr.pop()
			r, err := runtime.AddElem(h, arrv, key, val)
			h.DecRef(key)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpAddNewElemC:
			val, arrv := fr.pop(), fr.pop()
			r, err := runtime.AddNewElem(h, arrv, val)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)

		case hhbc.OpArrIdx:
			key, arrv := fr.pop(), fr.pop()
			el, err := runtime.ElemGet(h, arrv, key, "")
			h.DecRef(key)
			h.DecRef(arrv)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(el)
		case hhbc.OpArrGetL:
			key := fr.pop()
			el, err := runtime.ElemGet(h, fr.Locals[in.A], key, fr.Fn.LocalLabel(in.A))
			h.DecRef(key)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(el)
		case hhbc.OpArrSetL:
			key, val := fr.pop(), fr.pop()
			err := runtime.ElemSet(h, &fr.Locals[in.A], key, val)
			h.DecRef(key)
			if err != nil {
				return runtime.Null(), err
			}
		case hhbc.OpArrAppendL:
			if err := runtime.ElemAppend(h, &fr.Locals[in.A], fr.pop()); err != nil {
				return runtime.Null(), err
			}
		case hhbc.OpArrUnsetL:
			key := fr.pop()
			runtime.ElemUnset(h, &fr.Locals[in.A], key)
			h.DecRef(key)
		case hhbc.OpAKExistsL:
			key := fr.pop()
			fr.push(runtime.Bool(runtime.ElemExists(fr.Locals[in.A], key)))
			h.DecRef(key)

		case hhbc.OpIterInitL:
			if !fr.IterInit(h, in.A, in.C) {
				fr.PC = int(in.B)
				continue
			}
		case hhbc.OpIterNext:
			if fr.IterNext(in.A) {
				fr.PC = int(in.B)
				continue
			}
			// exhausted: fall through to IterFree
		case hhbc.OpIterKey:
			fr.push(fr.IterKey(h, in.A))
		case hhbc.OpIterValue:
			fr.push(fr.IterValue(h, in.A))
		case hhbc.OpIterFree:
			fr.IterFree(h, in.A)

		case hhbc.OpFCallD:
			ret, err := e.CallNamed(u.Strings[in.B], fr.popArgs(int(in.A)))
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)
		case hhbc.OpFCallBuiltin:
			args := fr.popArgs(int(in.A))
			var ret runtime.Value
			var err error
			if b, ok := runtime.LookupBuiltin(u.Strings[in.B]); ok {
				ret, err = e.CallBuiltin(b, args)
			} else {
				ret, err = e.CallNamed(u.Strings[in.B], args)
			}
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)
		case hhbc.OpFCallObjMethodD:
			args := fr.popArgs(int(in.A))
			ov := fr.pop()
			ret := runtime.Null()
			f, err := e.ResolveMethod(ov, u.Strings[in.B])
			if f != nil {
				ret, err = e.Call(f, ov.AsObj(), args)
			} else {
				e.ReleaseArgs(args)
			}
			h.DecRef(ov)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)

		case hhbc.OpNewObjD:
			o, err := e.NewObject(u.Strings[in.A])
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(o)
		case hhbc.OpThis:
			v, err := fr.ThisObj()
			if err != nil {
				return runtime.Null(), err
			}
			h.IncRef(v)
			fr.push(v)
		case hhbc.OpCGetPropD:
			ov := fr.pop()
			p, err := runtime.GetPropNamed(h, ov, u.Strings[in.A])
			h.DecRef(ov)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(p)
		case hhbc.OpSetPropD:
			val, ov := fr.pop(), fr.pop()
			h.IncRef(val) // one ref into the prop, one back on the stack
			err := runtime.SetPropNamed(h, ov, u.Strings[in.A], val)
			h.DecRef(ov)
			if err != nil {
				h.DecRef(val)
				return runtime.Null(), err
			}
			fr.push(val)
		case hhbc.OpInstanceOfD:
			v := fr.pop()
			fr.push(runtime.Bool(runtime.InstanceOf(v, u.Strings[in.A])))
			h.DecRef(v)
		case hhbc.OpVerifyParamType:
			if err := VerifyParam(fr.Fn, int(in.A), &fr.Locals[in.A]); err != nil {
				return runtime.Null(), err
			}

		case hhbc.OpPrint:
			v := fr.pop()
			e.Print(v)
			h.DecRef(v)
			fr.push(runtime.Int(1))

		default:
			return runtime.Null(), runtime.NewError("unimplemented opcode %s", in.Op)
		}
		fr.PC++
	}
}

// popArgs pops n call arguments. The returned slice aliases the stack
// slots just vacated: it is valid until the caller's next push, which
// is after the call returns — callees copy arguments into their own
// frame and never touch the caller's stack.
func (fr *Frame) popArgs(n int) []runtime.Value {
	args := fr.Stack[len(fr.Stack)-n:]
	fr.Stack = fr.Stack[:len(fr.Stack)-n]
	return args
}
