package machine

import (
	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// runHelper implements the out-of-line runtime helpers by moving
// register operands into the shared semantics layer (packages runtime
// and interp): no guest-visible decision is made here. Reference
// conventions match the HHIR lowering: results are owned; operands are
// borrowed unless the lowering documents the op as consuming them.
func (m *Machine) runHelper(act *activation, hid vasm.HelperID, extra int64, in *vasm.Instr) (runtime.Value, error) {
	env := m.Env
	h := env.Heap
	fr := act.fr
	arg := func(i int) runtime.Value { return act.get(in.Args[i]) }

	switch hid {
	case vasm.HConcat:
		parts := m.takeArgs(act, in.Args, 0)
		r := runtime.Concat(h, parts)
		m.putArgs(parts)
		return r, nil
	case vasm.HConcatAppend:
		// The register is the local for the duration: its reference
		// goes in, the one the local is to hold comes back.
		local := arg(0)
		parts := m.takeArgs(act, in.Args, 1)
		runtime.ConcatAppend(h, &local, parts)
		m.putArgs(parts)
		return local, nil
	case vasm.HBinop:
		// BinopGeneric consumes both operands (no DecRef follows it).
		a, b := arg(0), arg(1)
		r, err := interp.Binop(h, hhbc.Op(extra), a, b)
		h.DecRef(a)
		h.DecRef(b)
		return r, err
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
		return runtime.ToStr(h, arg(0)), nil
	case vasm.HCmpStr:
		return runtime.Bool(runtime.Compare(runtime.Cond(extra&0xff), arg(0), arg(1))), nil
	case vasm.HNewArr:
		return runtime.ArrV(h.NewMixed(int(extra))), nil
	case vasm.HNewPacked:
		elems := m.takeArgs(act, in.Args, 0)
		arr := h.NewPackedOf(elems)
		m.putArgs(elems)
		return runtime.ArrV(arr), nil
	case vasm.HAddElem:
		return runtime.AddElem(h, arg(0), arg(1), arg(2))
	case vasm.HAddNewElem:
		return runtime.AddNewElem(h, arg(0), arg(1))
	case vasm.HArrGetGeneric:
		return runtime.ElemGet(h, arg(0), arg(1), in.Str)
	case vasm.HArrSetLocal:
		return runtime.Null(), runtime.ElemSet(h, &fr.Locals[extra], arg(0), arg(1))
	case vasm.HArrAppendLocal:
		return runtime.Null(), runtime.ElemAppend(h, &fr.Locals[extra], arg(0))
	case vasm.HArrUnsetLocal:
		runtime.ElemUnset(h, &fr.Locals[extra], arg(0))
		return runtime.Null(), nil
	case vasm.HAKExistsLocal:
		return runtime.Bool(runtime.ElemExists(fr.Locals[extra], arg(0))), nil

	case vasm.HIterInit:
		iter, slot := vasm.UnpackIterSlot(extra)
		return runtime.Bool(fr.IterInit(h, iter, slot)), nil
	case vasm.HIterNext:
		return runtime.Bool(fr.IterNext(int32(extra))), nil
	case vasm.HIterKey:
		return fr.IterKey(h, int32(extra)), nil
	case vasm.HIterValue:
		return fr.IterValue(h, int32(extra)), nil
	case vasm.HIterFree:
		fr.IterFree(h, int32(extra))
		return runtime.Null(), nil

	case vasm.HNewObj:
		return env.NewObject(in.Str)
	case vasm.HLdPropGeneric:
		m.Shapes.GenericPropCalls.Add(1)
		return runtime.GetPropNamed(h, arg(0), in.Str)
	case vasm.HStPropGeneric:
		m.Shapes.GenericPropCalls.Add(1)
		return runtime.Null(), runtime.SetPropNamed(h, arg(0), in.Str, arg(1))
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
		return runtime.Bool(runtime.InstanceOf(v, in.Str)), nil
	case vasm.HVerifyParam:
		fnID, idx, slot := vasm.UnpackVerifyParam(extra)
		return runtime.Null(), interp.VerifyParam(env.Unit.Funcs[fnID], idx, &fr.Locals[slot])
	case vasm.HPrint:
		env.Print(arg(0))
		return runtime.Int(1), nil
	case vasm.HThrow:
		return runtime.Null(), runtime.ThrowValue(h, arg(0))
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
	code.StoreLink(ip, entered.ChainLink(epoch))
	m.Chain.BindsSmashed.Add(1)
}

// runCall dispatches guest calls from JITed code. Calls consume the
// argument references but not a method receiver's: the translation
// releases that with the DecRef it emits after the call. A call that
// raises never reaches that DecRef, so the receiver is released here.
// Direct call sites (CallFunc / CallMethodD) are smash sites: the
// first dispatch binds them to the callee's prologue translation.
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
		var ret runtime.Value
		var err error
		if in.I64 > 0 {
			// Resolved by mcode.Assemble.
			ret, err = env.CallBuiltin(code.Builtins[in.I64-1], args)
		} else {
			ret, err = env.CallNamed(in.Str, args)
		}
		m.putArgs(args)
		return ret, err
	case vasm.CallMethodD, vasm.CallMethodC:
		recv := act.get(in.Args[0])
		args := m.takeArgs(act, in.Args, 1)
		var f *hhbc.Func
		var hint ChainTarget
		var err error
		if in.Op == vasm.CallMethodD {
			f, hint = env.Unit.Funcs[in.I64], m.callHint(code, ip)
		} else {
			f, err = m.cachedMethod(in.I64, recv, in.Str)
		}
		ret := runtime.Null()
		if f != nil {
			if m.Counters != nil {
				m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
			}
			var entered ChainTarget
			ret, entered, err = m.CallGuest(f, recv.AsObj(), args, hint)
			if in.Op == vasm.CallMethodD {
				m.smashCall(code, ip, entered)
			}
		} else {
			env.ReleaseArgs(args)
		}
		m.putArgs(args)
		if err != nil {
			env.Heap.DecRef(recv)
		}
		return ret, err
	}
	return runtime.Null(), runtime.NewError("machine: bad call op")
}

// cachedMethod resolves a CallMethodC through the site's monomorphic
// inline cache (site -1 = caching disabled, full lookup every call).
// Only a hit is decided here; every miss — including the receivers
// that make the call raise — goes through the shared resolution.
func (m *Machine) cachedMethod(site int64, recv runtime.Value, name string) (*hhbc.Func, error) {
	if ent, ok := m.methodCache[site]; site >= 0 && ok &&
		recv.Kind == types.KObj && ent.cls == recv.AsObj().Class {
		m.Meter.Charge(methodCacheHitCost)
		return m.Env.Unit.Funcs[ent.funcID], nil
	}
	m.Meter.Charge(methodLookupCost)
	f, err := m.Env.ResolveMethod(recv, name)
	if f != nil && site >= 0 {
		m.methodCache[site] = methodCacheEnt{cls: recv.AsObj().Class, funcID: f.ID}
	}
	return f, err
}
