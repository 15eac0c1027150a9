package machine

import (
	"strings"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// runHelper implements the out-of-line runtime helpers. Reference
// conventions match the HHIR lowering: results are owned; helpers do
// not consume argument references unless documented.
func (m *Machine) runHelper(act *activation, hid vasm.HelperID, extra int64, in *vasm.Instr) (runtime.Value, error) {
	h := m.Env.Heap
	fr := act.fr
	arg := func(i int) runtime.Value { return act.get(in.Args[i]) }

	switch hid {
	case vasm.HConcat:
		return runtime.Concat(arg(0), arg(1)), nil
	case vasm.HBinop:
		return m.binop(hhbc.Op(extra), arg(0), arg(1))
	case vasm.HEqAny:
		r := runtime.LooseEq(arg(0), arg(1))
		return runtime.Bool(r == (extra == 0)), nil
	case vasm.HSameAny:
		r := runtime.StrictEq(arg(0), arg(1))
		return runtime.Bool(r == (extra == 0)), nil
	case vasm.HDivNum:
		return runtime.Div(arg(0), arg(1))
	case vasm.HModInt:
		return runtime.Mod(arg(0), arg(1))
	case vasm.HToStr:
		v := arg(0)
		if v.Kind == types.KStr {
			h.IncRef(v)
			return v, nil
		}
		return runtime.NewStr(v.ToString()), nil
	case vasm.HCmpStr:
		c := runtime.Cmp(arg(0), arg(1))
		return runtime.Bool(cmpI(extra&0xff, int64(c), 0)), nil
	case vasm.HNewArr:
		return runtime.ArrV(runtime.NewMixed()), nil
	case vasm.HNewPacked:
		elems := make([]runtime.Value, len(in.Args))
		for i := range in.Args {
			elems[i] = arg(i)
		}
		return runtime.ArrV(runtime.NewPacked(elems)), nil
	case vasm.HAddElem:
		arrv, key, val := arg(0), arg(1), arg(2)
		if arrv.Kind != types.KArr {
			return runtime.Null(), runtime.NewError("AddElem on non-array")
		}
		return runtime.ArrV(arrv.AsArr().Set(h, key, val)), nil
	case vasm.HAddNewElem:
		arrv, val := arg(0), arg(1)
		if arrv.Kind != types.KArr {
			return runtime.Null(), runtime.NewError("AddNewElem on non-array")
		}
		return runtime.ArrV(arrv.AsArr().Append(h, val)), nil
	case vasm.HArrGetGeneric:
		arrv, key := arg(0), arg(1)
		if arrv.Kind != types.KArr {
			return runtime.Null(), runtime.NewError("cannot index non-array")
		}
		el, _ := arrv.AsArr().Get(key)
		if el.Kind == types.KUninit {
			el = runtime.Null()
		}
		h.IncRef(el)
		return el, nil
	case vasm.HArrSetLocal:
		key, val := arg(0), arg(1)
		lv := fr.Locals[extra]
		if lv.Kind == types.KUninit || lv.Kind == types.KNull {
			lv = runtime.ArrV(runtime.NewMixed())
			fr.Locals[extra] = lv
		}
		if lv.Kind != types.KArr {
			h.DecRef(val)
			return runtime.Null(), runtime.NewError("cannot write index of non-array")
		}
		fr.Locals[extra] = runtime.ArrV(lv.AsArr().Set(h, key, val))
		return runtime.Null(), nil
	case vasm.HArrAppendLocal:
		val := arg(0)
		lv := fr.Locals[extra]
		if lv.Kind == types.KUninit || lv.Kind == types.KNull {
			lv = runtime.ArrV(runtime.NewPacked(nil))
			fr.Locals[extra] = lv
		}
		if lv.Kind != types.KArr {
			h.DecRef(val)
			return runtime.Null(), runtime.NewError("cannot append to non-array")
		}
		fr.Locals[extra] = runtime.ArrV(lv.AsArr().Append(h, val))
		return runtime.Null(), nil
	case vasm.HArrUnsetLocal:
		key := arg(0)
		lv := fr.Locals[extra]
		if lv.Kind == types.KArr {
			fr.Locals[extra] = runtime.ArrV(lv.AsArr().Remove(h, key))
		}
		return runtime.Null(), nil
	case vasm.HAKExistsLocal:
		key := arg(0)
		lv := fr.Locals[extra]
		ok := false
		if lv.Kind == types.KArr {
			_, ok = lv.AsArr().Get(key)
		}
		return runtime.Bool(ok), nil

	case vasm.HIterInit:
		iter, slot := vasm.UnpackIterSlot(extra)
		lv := fr.Locals[slot]
		if lv.Kind != types.KArr || lv.AsArr().Len() == 0 {
			return runtime.Bool(false), nil
		}
		h.IncRef(lv)
		setFrameIter(fr, iter, runtime.NewIter(lv.AsArr()))
		return runtime.Bool(true), nil
	case vasm.HIterNext:
		it := frameIter(fr, int32(extra))
		if it != nil && it.Next() {
			return runtime.Bool(true), nil
		}
		if it != nil {
			h.DecRef(runtime.ArrV(it.Arr()))
			setFrameIter(fr, int32(extra), nil)
		}
		return runtime.Bool(false), nil
	case vasm.HIterKey:
		it := frameIter(fr, int32(extra))
		k := it.Key()
		h.IncRef(k)
		return k, nil
	case vasm.HIterValue:
		it := frameIter(fr, int32(extra))
		v := it.Val()
		if v.Kind == types.KUninit {
			v = runtime.Null()
		}
		h.IncRef(v)
		return v, nil
	case vasm.HIterFree:
		it := frameIter(fr, int32(extra))
		if it != nil {
			h.DecRef(runtime.ArrV(it.Arr()))
			setFrameIter(fr, int32(extra), nil)
		}
		return runtime.Null(), nil

	case vasm.HNewObj:
		cls, ok := m.Env.Classes[in.Str]
		if !ok {
			return runtime.Null(), runtime.NewError("class %s not found", in.Str)
		}
		return runtime.ObjV(m.Env.NewInstance(cls)), nil
	case vasm.HLdPropGeneric:
		ov := arg(0)
		if ov.Kind != types.KObj {
			return runtime.Null(), runtime.NewError("property access on non-object")
		}
		m.Shapes.GenericPropCalls.Add(1)
		return runtime.GetPropNamed(h, ov.AsObj(), in.Str), nil
	case vasm.HStPropGeneric:
		ov, val := arg(0), arg(1)
		if ov.Kind != types.KObj {
			h.DecRef(val)
			return runtime.Null(), runtime.NewError("property write on non-object")
		}
		m.Shapes.GenericPropCalls.Add(1)
		if err := runtime.SetPropNamed(h, ov.AsObj(), in.Str, val); err != nil {
			return runtime.Null(), runtime.NewError("%s", err.Error())
		}
		return runtime.Null(), nil
	case vasm.HInstanceOf:
		v := arg(0)
		if extra > 0 {
			// Bitwise instanceof: one bit test against the receiver's
			// ancestor bitset (base helper cost only).
			r := v.Kind == types.KObj && v.AsObj().Class.HasAncestorID(int(extra-1))
			return runtime.Bool(r), nil
		}
		// Slow path: hierarchy walk by name.
		m.Meter.Charge(instanceOfWalkCost)
		r := v.Kind == types.KObj && v.AsObj().Class.IsSubclassOf(in.Str)
		return runtime.Bool(r), nil
	case vasm.HVerifyParam:
		return runtime.Null(), m.verifyParam(fr, int(extra), in.Str)
	case vasm.HPrint:
		if m.Env.Out != nil {
			_, _ = m.Env.Out.Write([]byte(arg(0).ToString()))
		}
		return runtime.Int(1), nil
	case vasm.HThrow:
		v := arg(0)
		if v.Kind != types.KObj {
			h.DecRef(v)
			return runtime.Null(), runtime.NewError("can only throw objects")
		}
		return runtime.Null(), runtime.Thrown(v.AsObj())
	case vasm.HConvToBoolGeneric:
		return runtime.Bool(arg(0).Bool()), nil
	case vasm.HConvToIntGeneric:
		return runtime.Int(arg(0).ToInt()), nil
	case vasm.HConvToDblGeneric:
		return runtime.Dbl(arg(0).ToDbl()), nil
	default:
		return runtime.Null(), runtime.NewError("machine: unknown helper %d", hid)
	}
}

// binop implements BinopGeneric.
func (m *Machine) binop(op hhbc.Op, a, b runtime.Value) (runtime.Value, error) {
	switch op {
	case hhbc.OpAdd:
		return runtime.Add(m.Env.Heap, a, b)
	case hhbc.OpSub:
		return runtime.Sub(a, b)
	case hhbc.OpMul:
		return runtime.Mul(a, b)
	case hhbc.OpDiv:
		return runtime.Div(a, b)
	case hhbc.OpMod:
		return runtime.Mod(a, b)
	case hhbc.OpNeg:
		if a.Kind == types.KDbl {
			return runtime.Dbl(-a.AsDbl()), nil
		}
		return runtime.Int(-a.ToInt()), nil
	case hhbc.OpGt:
		return runtime.Bool(runtime.Cmp(a, b) > 0), nil
	case hhbc.OpGte:
		return runtime.Bool(runtime.Cmp(a, b) >= 0), nil
	case hhbc.OpLt:
		return runtime.Bool(runtime.Cmp(a, b) < 0), nil
	case hhbc.OpLte:
		return runtime.Bool(runtime.Cmp(a, b) <= 0), nil
	case hhbc.OpEq:
		return runtime.Bool(runtime.LooseEq(a, b)), nil
	case hhbc.OpNeq:
		return runtime.Bool(!runtime.LooseEq(a, b)), nil
	default:
		return runtime.Null(), runtime.NewError("machine: bad generic binop %s", op)
	}
}

// verifyParam re-checks a shallow type hint against a frame slot. It
// must not consult fr.Fn (the slot may belong to an inlined callee).
func (m *Machine) verifyParam(fr *interp.Frame, slot int, hint string) error {
	nullable := strings.HasPrefix(hint, "?")
	hint = strings.TrimPrefix(hint, "?")
	v := fr.Locals[slot]
	if nullable && v.IsNull() {
		return nil
	}
	ok := false
	switch hint {
	case "int":
		ok = v.Kind == types.KInt
	case "float":
		ok = v.Kind == types.KDbl || v.Kind == types.KInt
		if v.Kind == types.KInt {
			fr.Locals[slot] = runtime.Dbl(float64(v.AsInt()))
		}
	case "string":
		ok = v.Kind == types.KStr
	case "bool":
		ok = v.Kind == types.KBool
	case "array":
		ok = v.Kind == types.KArr
	case "":
		ok = true
	default:
		ok = v.Kind == types.KObj && v.AsObj().Class.IsSubclassOf(hint)
	}
	if !ok {
		return runtime.NewError("argument at slot %d must be of type %s, %s given",
			slot, hint, v.Type())
	}
	return nil
}

// frameIter / setFrameIter manipulate the frame's iterator slots.
func frameIter(fr *interp.Frame, id int32) *runtime.Iter {
	if int(id) < len(fr.Iters) {
		return fr.Iters[id]
	}
	return nil
}

func setFrameIter(fr *interp.Frame, id int32, it *runtime.Iter) {
	for int(id) >= len(fr.Iters) {
		fr.Iters = append(fr.Iters, nil)
	}
	fr.Iters[id] = it
}

// takeArgs copies the call's argument registers into a pooled scratch
// slice (returned to the free list with putArgs once the callee has
// consumed it). The list is a stack because guest calls nest.
func (m *Machine) takeArgs(act *activation, regs []vasm.Reg, skip int) []runtime.Value {
	var buf []runtime.Value
	if k := len(m.argBufs); k > 0 {
		buf = m.argBufs[k-1][:0]
		m.argBufs = m.argBufs[:k-1]
	}
	for _, r := range regs[skip:] {
		buf = append(buf, act.get(r))
	}
	return buf
}

func (m *Machine) putArgs(buf []runtime.Value) {
	m.argBufs = append(m.argBufs, buf[:0])
}

// callHint reads the call site's smashed callee link, if fresh.
func (m *Machine) callHint(code *mcode.Code, ip int) ChainTarget {
	if !code.Chainable || m.Epoch == nil {
		return nil
	}
	l := code.LoadLink(ip)
	if l == nil {
		return nil
	}
	if l.Epoch != m.Epoch.Load() {
		m.Chain.StaleLinks.Add(1)
		return nil
	}
	t, _ := l.Target.(ChainTarget)
	return t
}

// smashCall binds a direct call site to the callee prologue
// translation the dispatcher just entered, so the next call transfers
// into it without a Lookup.
func (m *Machine) smashCall(code *mcode.Code, ip int, entered ChainTarget) {
	if entered == nil || !code.Chainable || m.Epoch == nil {
		return
	}
	if cc := entered.ChainCode(); cc == nil || !cc.Chainable {
		return
	}
	epoch := m.Epoch.Load()
	if l := code.LoadLink(ip); l != nil && l.Target == entered && l.Epoch == epoch {
		return // already bound to this target
	}
	code.StoreLink(ip, &mcode.Link{Epoch: epoch, Target: entered})
	m.Chain.BindsSmashed.Add(1)
}

// runCall dispatches guest calls from JITed code. Calls consume the
// argument references (and for methods, NOT the receiver's — the
// caller releases it, matching the interpreter). Direct call sites
// (CallFunc / CallMethodD) are smash sites: the first dispatch binds
// them to the callee's prologue translation.
func (m *Machine) runCall(code *mcode.Code, ip int, act *activation, in *vasm.Instr) (runtime.Value, error) {
	env := m.Env
	switch in.Op {
	case vasm.CallFunc:
		args := m.takeArgs(act, in.Args, 0)
		f := env.Unit.Funcs[in.I64]
		if m.Counters != nil {
			m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
		}
		ret, entered, err := m.CallGuest(f, nil, args, m.callHint(code, ip))
		m.smashCall(code, ip, entered)
		m.putArgs(args)
		return ret, err
	case vasm.CallBuiltin:
		args := m.takeArgs(act, in.Args, 0)
		if in.I64 > 0 {
			// Resolved by mcode.Assemble.
			b := code.Builtins[in.I64-1]
			m.Meter.Charge(b.Cost)
			ret, err := b.Fn(env.BuiltinCtx(), args)
			for _, a := range args {
				env.Heap.DecRef(a)
			}
			m.putArgs(args)
			return ret, err
		}
		// A user function shadowing an unresolved direct call.
		if f, ok := env.Unit.FuncByName(in.Str); ok {
			ret, _, err := m.CallGuest(f, nil, args, nil)
			m.putArgs(args)
			return ret, err
		}
		for _, a := range args {
			env.Heap.DecRef(a)
		}
		m.putArgs(args)
		return runtime.Null(), runtime.NewError("call to undefined function %s()", in.Str)
	case vasm.CallMethodD:
		obj := act.get(in.Args[0])
		args := m.takeArgs(act, in.Args, 1)
		f := env.Unit.Funcs[in.I64]
		if m.Counters != nil {
			m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
		}
		ret, entered, err := m.CallGuest(f, obj.AsObj(), args, m.callHint(code, ip))
		m.smashCall(code, ip, entered)
		m.putArgs(args)
		return ret, err
	case vasm.CallMethodC:
		obj := act.get(in.Args[0])
		args := m.takeArgs(act, in.Args, 1)
		if obj.Kind != types.KObj {
			for _, a := range args {
				env.Heap.DecRef(a)
			}
			m.putArgs(args)
			return runtime.Null(), runtime.NewError("method call on non-object")
		}
		// Inline cache: monomorphic per call site (site -1 = caching
		// disabled, full lookup every call).
		var funcID int
		if ent, ok := m.methodCache[in.I64]; in.I64 >= 0 && ok && ent.cls == obj.AsObj().Class {
			m.Meter.Charge(methodCacheHitCost)
			funcID = ent.funcID
		} else {
			m.Meter.Charge(methodLookupCost)
			id, ok := obj.AsObj().Class.LookupMethod(in.Str)
			if !ok {
				for _, a := range args {
					env.Heap.DecRef(a)
				}
				m.putArgs(args)
				if in.Str == "__construct" {
					return runtime.Null(), nil
				}
				return runtime.Null(), runtime.NewError("call to undefined method %s::%s()",
					obj.AsObj().Class.Name, in.Str)
			}
			if in.I64 >= 0 {
				m.methodCache[in.I64] = methodCacheEnt{cls: obj.AsObj().Class, funcID: id}
			}
			funcID = id
		}
		f := env.Unit.Funcs[funcID]
		if m.Counters != nil {
			m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
		}
		ret, _, err := m.CallGuest(f, obj.AsObj(), args, nil)
		m.putArgs(args)
		return ret, err
	}
	return runtime.Null(), runtime.NewError("machine: bad call op")
}
