package hhir

import (
	"repro/internal/hhbc"
	"repro/internal/profile"
	"repro/internal/shapes"
	"repro/internal/types"
)

// Reference-count conventions: virtual-stack values are owned (one
// reference each); LdLoc borrows (CGetL adds an explicit IncRef, the
// raw material of RCE); helpers return owned results and consume
// their argument references when documented (calls, array stores).

// lowerInstr lowers one bytecode instruction. Returns done=true when
// a terminator was emitted (the region block is finished).
func (b *builder) lowerInstr(in hhbc.Instr, pc int, ri int) (bool, error) {
	u := b.unit
	switch in.Op {
	case hhbc.OpNop, hhbc.OpIncProfCounter:

	case hhbc.OpAssertRATL:
		slot := b.slot(in.A)
		b.setLocalType(slot, hhbc.Refine(b.localType(slot), u.DecodeRAT(in.B, in.C)))
	case hhbc.OpAssertRAStk:
		if d := len(b.stack) - 1 - int(in.A); d >= 0 {
			nt := hhbc.Refine(b.stack[d].Type, u.DecodeRAT(in.B, in.C))
			b.stack[d] = b.def(AssertType, nt, b.stack[d])
		}

	case hhbc.OpInt:
		b.push(b.constInt(u.Ints[in.A]))
	case hhbc.OpDouble:
		b.push(b.constDbl(u.Doubles[in.A]))
	case hhbc.OpString:
		b.push(b.constStr(u.Strings[in.A]))
	case hhbc.OpTrue:
		b.push(b.constBool(true))
	case hhbc.OpFalse:
		b.push(b.constBool(false))
	case hhbc.OpNull:
		b.push(b.constNull())

	case hhbc.OpPopC:
		b.decRef(b.pop())
	case hhbc.OpDup:
		v := b.top()
		b.incRef(v)
		b.push(v)

	case hhbc.OpCGetL:
		v := b.ldLoc(b.slot(in.A))
		b.incRef(v)
		b.push(v)
	case hhbc.OpCGetL2:
		v := b.ldLoc(b.slot(in.A))
		b.incRef(v)
		top := b.pop()
		b.push(v)
		b.push(top)
	case hhbc.OpPopL:
		v := b.pop()
		b.storeToLocal(b.slot(in.A), v)
	case hhbc.OpSetL:
		v := b.top()
		b.incRef(v)
		b.storeToLocal(b.slot(in.A), v)
	case hhbc.OpPushL:
		slot := b.slot(in.A)
		v := b.ldLoc(slot)
		b.push(v)
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{b.constNullOfUninit()}})
		b.setLocalType(slot, types.TUninit)
	case hhbc.OpUnsetL:
		slot := b.slot(in.A)
		old := b.ldLoc(slot)
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{b.constNullOfUninit()}})
		b.decRef(old)
		b.setLocalType(slot, types.TUninit)
	case hhbc.OpIsTypeL:
		v := b.ldLoc(b.slot(in.A))
		k := types.Kind(in.B)
		switch {
		case v.Type.Kind()&k == v.Type.Kind():
			b.push(b.constBool(true))
		case v.Type.Kind()&k == 0:
			b.push(b.constBool(false))
		default:
			b.push(b.def(ConvToBool, types.TBool, v)) // dynamic kind test
		}
	case hhbc.OpIncDecL:
		if done := b.lowerIncDec(in); done {
			return true, nil
		}

	case hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul:
		y, x := b.pop(), b.pop()
		b.push(b.lowerArith(in.Op, x, y))
	case hhbc.OpDiv:
		y, x := b.pop(), b.pop()
		switch {
		case x.Type.SubtypeOf(types.TDbl) || y.Type.SubtypeOf(types.TDbl):
			xd, yd := b.toDbl(x), b.toDbl(y)
			b.push(b.def(DivDbl, types.TDbl, xd, yd))
		case x.Type.SubtypeOf(types.TInt) && y.Type.SubtypeOf(types.TInt):
			dst := b.out.NewTmp(types.TNum)
			inn := &Instr{Op: DivNum, Dst: dst, Args: []*SSATmp{x, y}, Exit: b.catchExit()}
			dst.Def = inn
			b.emit(inn)
			b.push(dst)
		default:
			b.push(b.generic(hhbc.OpDiv, x, y))
		}
	case hhbc.OpMod:
		y, x := b.pop(), b.pop()
		if x.Type.SubtypeOf(types.TInt) && y.Type.SubtypeOf(types.TInt) {
			dst := b.out.NewTmp(types.TInt)
			inn := &Instr{Op: ModInt, Dst: dst, Args: []*SSATmp{x, y}, Exit: b.catchExit()}
			dst.Def = inn
			b.emit(inn)
			b.push(dst)
		} else {
			b.push(b.generic(hhbc.OpMod, x, y))
		}
	case hhbc.OpConcatN:
		parts := b.popN(int(in.A))
		r := b.def(ConcatStr, types.TStr, parts...)
		b.decRefs(parts)
		b.push(r)
	case hhbc.OpConcatL:
		parts := b.popN(int(in.A))
		slot := b.slot(in.B)
		r := b.def(ConcatAppend, types.TStr, append([]*SSATmp{b.ldLoc(slot)}, parts...)...)
		b.stLoc(slot, r) // the old value's reference went into r
		b.decRefs(parts)
	case hhbc.OpNeg:
		x := b.pop()
		switch {
		case x.Type.SubtypeOf(types.TInt):
			b.push(b.def(NegInt, types.TInt, x))
		case x.Type.SubtypeOf(types.TDbl):
			b.push(b.def(NegDbl, types.TDbl, x))
		default:
			b.push(b.generic(hhbc.OpNeg, x, b.constInt(0)))
		}

	case hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte:
		y, x := b.pop(), b.pop()
		b.push(b.lowerCmp(in.Op, x, y))
	case hhbc.OpEq, hhbc.OpNeq:
		y, x := b.pop(), b.pop()
		neg := int64(0)
		if in.Op == hhbc.OpNeq {
			neg = 1
		}
		switch {
		case x.Type.SubtypeOf(types.TInt) && y.Type.SubtypeOf(types.TInt):
			cond := int64(CondEQ)
			if neg == 1 {
				cond = CondNE
			}
			b.push(b.cmpI(cond, x, y))
		case x.Type.SubtypeOf(types.TStr) && y.Type.SubtypeOf(types.TStr):
			cond := int64(CondEQ)
			if neg == 1 {
				cond = CondNE
			}
			r := b.out.NewTmp(types.TBool)
			inn := &Instr{Op: CmpStr, Dst: r, I64: cond, Args: []*SSATmp{x, y}}
			r.Def = inn
			b.emit(inn)
			b.decRef(x)
			b.decRef(y)
			b.push(r)
		default:
			r := b.out.NewTmp(types.TBool)
			inn := &Instr{Op: EqAny, Dst: r, I64: neg, Args: []*SSATmp{x, y}, Exit: b.catchExit()}
			r.Def = inn
			b.emit(inn)
			b.decRef(x)
			b.decRef(y)
			b.push(r)
		}
	case hhbc.OpSame, hhbc.OpNSame:
		y, x := b.pop(), b.pop()
		neg := int64(0)
		if in.Op == hhbc.OpNSame {
			neg = 1
		}
		r := b.out.NewTmp(types.TBool)
		inn := &Instr{Op: SameAny, Dst: r, I64: neg, Args: []*SSATmp{x, y}, Exit: b.catchExit()}
		r.Def = inn
		b.emit(inn)
		b.decRef(x)
		b.decRef(y)
		b.push(r)
	case hhbc.OpNot:
		x := b.pop()
		bl := b.toBool(x)
		b.decRef(x)
		r := b.out.NewTmp(types.TBool)
		inn := &Instr{Op: CmpInt, Dst: r, I64: CondEQ, Args: []*SSATmp{bl, b.constBool(false)}}
		r.Def = inn
		b.emit(inn)
		b.push(r)

	case hhbc.OpCastBool:
		x := b.pop()
		r := b.toBool(x)
		b.decRef(x)
		b.push(r)
	case hhbc.OpCastInt:
		x := b.pop()
		r := b.def(ConvToInt, types.TInt, x)
		b.decRef(x)
		b.push(r)
	case hhbc.OpCastDouble:
		x := b.pop()
		r := b.toDbl(x)
		b.decRef(x)
		b.push(r)
	case hhbc.OpCastString:
		x := b.pop()
		if x.Type.SubtypeOf(types.TStr) {
			b.push(x)
		} else {
			r := b.def(ConvToStr, types.TStr, x)
			b.decRef(x)
			b.push(r)
		}

	case hhbc.OpJmp:
		b.jumpToPC(int(in.A), ri)
		return true, nil
	case hhbc.OpJmpZ, hhbc.OpJmpNZ:
		v := b.pop()
		cond := b.toBool(v)
		b.decRef(v)
		takenPC, fallPC := int(in.A), pc+1
		if in.Op == hhbc.OpJmpZ {
			// Branch takes when cond is true; JmpZ jumps when false.
			takenPC, fallPC = fallPC, takenPC
		}
		taken := b.trampoline(takenPC, ri)
		fall := b.trampoline(fallPC, ri)
		b.emit(&Instr{Op: Branch, Args: []*SSATmp{cond}, Taken: taken, Next: fall})
		return true, nil
	case hhbc.OpSwitch:
		// Dense int switch: a real jump table (bounds check + indexed
		// indirect jump), like HHVM's Switch lowering.
		v := b.pop()
		iv := b.toInt(v)
		sw := b.curFn().Switches[in.A]
		table := make([]*Block, len(sw.Targets))
		for ti, tpc := range sw.Targets {
			table[ti] = b.trampoline(tpc, ri)
		}
		def := b.trampoline(sw.Default, ri)
		b.emit(&Instr{Op: SwitchInt, Args: []*SSATmp{iv}, I64: sw.Base,
			Table: table, Taken: def})
		return true, nil

	case hhbc.OpRetC:
		v := b.pop()
		if len(b.inlines) > 0 {
			b.endInline(v)
			return true, nil
		}
		b.emit(&Instr{Op: Ret, Args: []*SSATmp{v}})
		return true, nil
	case hhbc.OpThrow:
		v := b.pop()
		b.emit(&Instr{Op: ThrowC, Args: []*SSATmp{v}, Exit: b.catchExit()})
		return true, nil
	case hhbc.OpCatch, hhbc.OpFatal:
		// Catch handlers and fatals stay in the interpreter.
		b.emit(&Instr{Op: SideExit, Exit: b.exitDesc(pc, false)})
		return true, nil

	case hhbc.OpNewArray:
		arr := b.def(NewArr, types.ArrOfKind(types.ArrayMixed))
		arr.Def.I64 = int64(in.A)
		b.push(arr)
	case hhbc.OpNewPackedArray:
		b.push(b.def(NewPackedArr, types.ArrOfKind(types.ArrayPacked), b.popN(int(in.A))...))
	case hhbc.OpAddElemC:
		val, key, arr := b.pop(), b.pop(), b.pop()
		dst := b.out.NewTmp(types.TArr)
		inn := &Instr{Op: AddElem, Dst: dst, Args: []*SSATmp{arr, key, val}, Exit: b.catchExit()}
		dst.Def = inn
		b.emit(inn)
		b.decRef(key)
		b.push(dst)
	case hhbc.OpAddNewElemC:
		val, arr := b.pop(), b.pop()
		t := types.TArr
		if arr.Type.SubtypeOf(types.TArr) && arr.Type.IsSpecialized() {
			t = arr.Type
		}
		dst := b.out.NewTmp(t)
		inn := &Instr{Op: AddNewElem, Dst: dst, Args: []*SSATmp{arr, val}, Exit: b.catchExit()}
		dst.Def = inn
		b.emit(inn)
		b.push(dst)

	case hhbc.OpArrIdx:
		key, arr := b.pop(), b.pop()
		r := b.arrGet(arr, key, "")
		b.decRef(key)
		b.decRef(arr)
		b.push(r)
	case hhbc.OpArrGetL:
		key := b.pop()
		arr := b.ldLoc(b.slot(in.A))
		r := b.arrGet(arr, key, b.curFn().LocalLabel(in.A))
		b.decRef(key)
		b.push(r)
	case hhbc.OpArrSetL:
		key, val := b.pop(), b.pop()
		b.emit(&Instr{Op: ArrSetLocal, I64: int64(b.slot(in.A)),
			Args: []*SSATmp{key, val}, Exit: b.catchExit()})
		b.decRef(key)
		b.retypeElemLocal(in)
	case hhbc.OpArrAppendL:
		val := b.pop()
		slot := b.slot(in.A)
		b.emit(&Instr{Op: ArrAppendLocal, I64: int64(slot),
			Args: []*SSATmp{val}, Exit: b.catchExit()})
		b.retypeElemLocal(in)
	case hhbc.OpArrUnsetL:
		key := b.pop()
		slot := b.slot(in.A)
		b.emit(&Instr{Op: ArrUnsetLocal, I64: int64(slot), Args: []*SSATmp{key}})
		b.decRef(key)
		b.retypeElemLocal(in)
	case hhbc.OpAKExistsL:
		key := b.pop()
		dst := b.out.NewTmp(types.TBool)
		inn := &Instr{Op: AKExistsLocal, Dst: dst, I64: int64(b.slot(in.A)), Args: []*SSATmp{key}}
		dst.Def = inn
		b.emit(inn)
		b.decRef(key)
		b.push(dst)

	case hhbc.OpIterInitL:
		slot := b.slot(in.C)
		body := b.trampoline(pc+1, ri)
		exit := b.trampoline(int(in.B), ri)
		b.emit(&Instr{Op: IterInitLocal, I64: packIter(in.A, int32(slot)),
			Taken: body, Next: exit})
		return true, nil
	case hhbc.OpIterNext:
		body := b.trampoline(int(in.B), ri)
		exit := b.trampoline(pc+1, ri)
		b.emit(&Instr{Op: IterNextK, I64: int64(in.A), Taken: body, Next: exit})
		return true, nil
	case hhbc.OpIterKey:
		dst := b.out.NewTmp(hhbc.IterKeyType)
		inn := &Instr{Op: IterKey, Dst: dst, I64: int64(in.A)}
		dst.Def = inn
		b.emit(inn)
		b.push(dst)
	case hhbc.OpIterValue:
		dst := b.out.NewTmp(types.TInitCell)
		inn := &Instr{Op: IterValue, Dst: dst, I64: int64(in.A)}
		dst.Def = inn
		b.emit(inn)
		b.push(dst)
	case hhbc.OpIterFree:
		b.emit(&Instr{Op: IterFree, I64: int64(in.A)})

	case hhbc.OpFCallD:
		return false, b.lowerCallD(in, pc)
	case hhbc.OpFCallBuiltin:
		return false, b.lowerCallBuiltin(in)
	case hhbc.OpFCallObjMethodD:
		return false, b.lowerCallMethod(in, pc)

	case hhbc.OpNewObjD:
		dst := b.out.NewTmp(types.ObjOfClass(u.Strings[in.A], true))
		inn := &Instr{Op: NewObj, Dst: dst, Str: u.Strings[in.A], Exit: b.catchExit()}
		dst.Def = inn
		b.emit(inn)
		b.push(dst)
	case hhbc.OpThis:
		// Inside an inlined method the receiver is a known SSA value;
		// otherwise load it from the frame.
		if n := len(b.inlines); n > 0 {
			this := b.inlines[n-1].ctx.This
			if this == nil {
				b.emit(&Instr{Op: SideExit, Exit: b.exitDesc(pc, false)})
				return true, nil
			}
			b.incRef(this)
			b.push(this)
			break
		}
		t := types.TObj
		if b.curFn().Class != "" {
			t = types.ObjOfClass(b.curFn().Class, false)
		}
		v := b.def(LdThis, t)
		b.incRef(v)
		b.push(v)
	case hhbc.OpCGetPropD:
		// Snapshot the exit while obj is still on the stack, so a
		// failed shape speculation re-executes the access in the
		// interpreter (same idiom as method devirtualization).
		specExit := b.exitDesc(pc, false)
		obj := b.pop()
		b.push(b.propGet(obj, u.Strings[in.A], pc, specExit))
	case hhbc.OpSetPropD:
		specExit := b.exitDesc(pc, false)
		val, obj := b.pop(), b.pop()
		b.propSet(obj, u.Strings[in.A], val, pc, specExit)
		b.push(val)
	case hhbc.OpInstanceOfD:
		v := b.pop()
		cls := u.Strings[in.A]
		var r *SSATmp
		if c, exact := v.Type.Class(); c != "" && exact {
			// Statically decidable: fold the instanceof check.
			r = b.constBool(types.IsSubclassOf(c, cls))
		} else {
			dst := b.out.NewTmp(types.TBool)
			inn := &Instr{Op: InstanceOf, Dst: dst, Str: cls, Args: []*SSATmp{v}}
			// Bitwise instanceof: a loaded class resolves to a dense
			// ID checked with a single bit test (Figure 7).
			if rc, ok := b.env.ClassByName(cls); ok {
				inn.I64 = int64(rc.ClassID) + 1
			}
			dst.Def = inn
			b.emit(inn)
			r = dst
		}
		b.decRef(v)
		b.push(r)
	case hhbc.OpVerifyParamType:
		idx := int(in.A)
		p := b.curFn().Params[idx]
		slot := b.slot(in.A)
		if !b.localType(slot).SubtypeOf(hhbc.HintType(p)) {
			b.emit(&Instr{Op: VerifyParam, I64: packVerify(b.curFn().ID, idx, slot),
				Exit: b.catchExit()})
		}
		b.setLocalType(slot, hhbc.VerifiedParamType(p, b.localType(slot)))

	case hhbc.OpPrint:
		v := b.pop()
		b.emit(&Instr{Op: PrintC, Args: []*SSATmp{v}})
		b.decRef(v)
		b.push(b.constInt(1))

	default:
		// Anything unexpected: hand the pc to the interpreter.
		b.emit(&Instr{Op: SideExit, Exit: b.exitDesc(pc, false)})
		return true, nil
	}
	return false, nil
}

func packIter(iter, slot int32) int64 { return int64(iter)<<32 | int64(uint32(slot)) }

// UnpackIter decodes IterInitLocal's immediate.
func UnpackIter(v int64) (iter, slot int32) { return int32(v >> 32), int32(uint32(v)) }

// packVerify encodes VerifyParam's immediate: parameter idx of
// function funcID (the callee, inside inlined code) lives in frame
// slot.
func packVerify(funcID, idx, slot int) int64 {
	return int64(funcID)<<32 | int64(idx)<<24 | int64(slot)
}

// UnpackVerify decodes VerifyParam's immediate.
func UnpackVerify(v int64) (funcID, idx, slot int) {
	return int(v >> 32), int(v >> 24 & 0xff), int(v & 0xffffff)
}

// slot translates a bytecode local index into a frame slot, applying
// the inline-frame offset when inside inlined code.
func (b *builder) slot(a int32) int {
	if n := len(b.inlines); n > 0 {
		return b.inlines[n-1].slotBase + int(a)
	}
	return int(a)
}

// curFn is the function whose bytecode is being lowered (the callee
// inside inlined code).
func (b *builder) curFn() *hhbc.Func {
	if n := len(b.inlines); n > 0 {
		return b.inlines[n-1].callee
	}
	return b.fn
}

// retypeElemLocal gives the local of ArrSetL/ArrAppendL/ArrUnsetL its
// type after the store.
func (b *builder) retypeElemLocal(in hhbc.Instr) {
	slot := b.slot(in.A)
	b.setLocalType(slot, hhbc.ElemLocalType(in.Op, b.localType(slot)))
}

// storeToLocal stores v (ownership transferred) and releases the old
// value.
func (b *builder) storeToLocal(slot int, v *SSATmp) {
	oldT := b.localType(slot)
	if oldT.MaybeCounted() {
		old := b.ldLoc(slot)
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{v}})
		b.decRef(old)
	} else {
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{v}})
	}
	b.setLocalType(slot, v.Type)
}

func (b *builder) constNullOfUninit() *SSATmp {
	dst := b.out.NewTmp(types.TUninit)
	in := &Instr{Op: DefConstNull, Dst: dst, I64: 1}
	dst.Def = in
	b.emit(in)
	return dst
}

// lowerArith handles +,-,* with type specialization.
func (b *builder) lowerArith(op hhbc.Op, x, y *SSATmp) *SSATmp {
	intOp := map[hhbc.Op]Opcode{hhbc.OpAdd: AddInt, hhbc.OpSub: SubInt, hhbc.OpMul: MulInt}[op]
	dblOp := map[hhbc.Op]Opcode{hhbc.OpAdd: AddDbl, hhbc.OpSub: SubDbl, hhbc.OpMul: MulDbl}[op]
	switch {
	case x.Type.SubtypeOf(types.TInt) && y.Type.SubtypeOf(types.TInt):
		return b.def(intOp, types.TInt, x, y)
	case x.Type.SubtypeOf(types.TNum) && y.Type.SubtypeOf(types.TNum):
		return b.def(dblOp, types.TDbl, b.toDbl(x), b.toDbl(y))
	default:
		return b.generic(op, x, y)
	}
}

func (b *builder) lowerCmp(op hhbc.Op, x, y *SSATmp) *SSATmp {
	cond := map[hhbc.Op]int64{
		hhbc.OpGt: CondGT, hhbc.OpGte: CondGE, hhbc.OpLt: CondLT, hhbc.OpLte: CondLE,
	}[op]
	switch {
	case x.Type.SubtypeOf(types.TInt) && y.Type.SubtypeOf(types.TInt):
		return b.cmpI(cond, x, y)
	case x.Type.SubtypeOf(types.TNum) && y.Type.SubtypeOf(types.TNum):
		r := b.out.NewTmp(types.TBool)
		in := &Instr{Op: CmpDbl, Dst: r, I64: cond, Args: []*SSATmp{b.toDbl(x), b.toDbl(y)}}
		r.Def = in
		b.emit(in)
		return r
	case x.Type.SubtypeOf(types.TStr) && y.Type.SubtypeOf(types.TStr):
		r := b.out.NewTmp(types.TBool)
		in := &Instr{Op: CmpStr, Dst: r, I64: cond, Args: []*SSATmp{x, y}}
		r.Def = in
		b.emit(in)
		b.decRef(x)
		b.decRef(y)
		return r
	default:
		return b.generic(op, x, y)
	}
}

func (b *builder) cmpI(cond int64, x, y *SSATmp) *SSATmp {
	r := b.out.NewTmp(types.TBool)
	in := &Instr{Op: CmpInt, Dst: r, I64: cond, Args: []*SSATmp{x, y}}
	r.Def = in
	b.emit(in)
	return r
}

// generic emits the BinopGeneric helper (consumes both refs, returns
// owned result).
func (b *builder) generic(op hhbc.Op, x, y *SSATmp) *SSATmp {
	dst := b.out.NewTmp(types.TInitCell)
	in := &Instr{Op: BinopGeneric, Dst: dst, I64: int64(op),
		Args: []*SSATmp{x, y}, Exit: b.catchExit()}
	dst.Def = in
	b.emit(in)
	return dst
}

func (b *builder) toBool(v *SSATmp) *SSATmp {
	if v.Type.SubtypeOf(types.TBool) {
		return v
	}
	return b.def(ConvToBool, types.TBool, v)
}

func (b *builder) toInt(v *SSATmp) *SSATmp {
	if v.Type.SubtypeOf(types.TInt) {
		return v
	}
	return b.def(ConvToInt, types.TInt, v)
}

func (b *builder) toDbl(v *SSATmp) *SSATmp {
	if v.Type.SubtypeOf(types.TDbl) {
		return v
	}
	return b.def(ConvToDbl, types.TDbl, v)
}

// arrGet emits a specialized or generic array read; result is owned.
// local names the variable arr was loaded from ("" for a stack
// operand): the generic helper's error names it, as the interpreter's
// does.
func (b *builder) arrGet(arr, key *SSATmp, local string) *SSATmp {
	if arr.Type.ArrayKind() == types.ArrayPacked && key.Type.SubtypeOf(types.TInt) {
		dst := b.out.NewTmp(types.TInitCell)
		in := &Instr{Op: ArrGetPackedI, Dst: dst, Args: []*SSATmp{arr, key},
			Exit: b.catchExit()}
		dst.Def = in
		b.emit(in)
		return dst
	}
	dst := b.out.NewTmp(types.TInitCell)
	in := &Instr{Op: ArrGetGeneric, Dst: dst, Str: local, Args: []*SSATmp{arr, key},
		Exit: b.catchExit()}
	dst.Def = in
	b.emit(in)
	return dst
}

// propGet lowers property reads, best speculation first: slot-direct
// when the class is statically exact; shape-guarded typed slot access
// when the site's profile is monomorphic in shape (one guard covers
// class-polymorphic receivers with identical layouts); a self-filling
// shape IC for polymorphic or unprofiled sites; the generic helper
// for megamorphic sites or with shapes disabled. Profiling
// translations record the receiver shape and keep the generic paths.
// Consumes obj's ref; result owned. specExit was snapshotted before
// the pop, so a shape-guard failure re-executes the bytecode.
func (b *builder) propGet(obj *SSATmp, name string, pc int, specExit *ExitDesc) *SSATmp {
	if b.cfg.Profiling && b.cfg.EnableShapes {
		b.emit(&Instr{Op: ProfPropShape, I64: int64(pc), Args: []*SSATmp{obj}})
	}
	if cls, exact := obj.Type.Class(); exact {
		if rc, ok := b.env.ClassByName(cls); ok {
			if slot, ok := rc.PropNames[name]; ok {
				v := b.out.NewTmp(types.TInitCell)
				in := &Instr{Op: LdPropSlot, Dst: v, I64: int64(slot), Args: []*SSATmp{obj}}
				v.Def = in
				b.emit(in)
				b.incRef(v)
				b.decRef(obj)
				return v
			}
		}
	}
	if b.shapeSpecOK(obj) {
		sp := b.sitePropShapes(pc)
		if sh := monoShape(b.env.Shapes, sp); sh != nil {
			if slot, ok := sh.Lookup(name); ok {
				b.guardShape(obj, sh, specExit)
				v := b.out.NewTmp(types.FromKind(sh.SlotKind(slot)))
				in := &Instr{Op: LdPropSlot, Dst: v, I64: int64(slot), Args: []*SSATmp{obj}}
				v.Def = in
				b.emit(in)
				b.incRef(v)
				b.decRef(obj)
				return v
			}
		}
		if !megamorphic(sp) {
			dst := b.out.NewTmp(types.TInitCell)
			in := &Instr{Op: LdPropIC, Dst: dst, Str: name, Args: []*SSATmp{obj},
				Exit: b.catchExit()}
			dst.Def = in
			b.emit(in)
			b.decRef(obj)
			return dst
		}
	}
	dst := b.out.NewTmp(types.TInitCell)
	in := &Instr{Op: LdPropGeneric, Dst: dst, Str: name, Args: []*SSATmp{obj},
		Exit: b.catchExit()}
	dst.Def = in
	b.emit(in)
	b.decRef(obj)
	return dst
}

// propSet stores a property; the stack keeps one reference to val, so
// an extra IncRef feeds the property slot. Speculation ladder mirrors
// propGet, with one extra constraint on the guarded path: the store
// must not change the shape (slot exists with the same kind), since
// StPropSlot after GuardShape assumes the layout is stable.
func (b *builder) propSet(obj *SSATmp, name string, val *SSATmp, pc int, specExit *ExitDesc) {
	if b.cfg.Profiling && b.cfg.EnableShapes {
		b.emit(&Instr{Op: ProfPropShape, I64: int64(pc), Args: []*SSATmp{obj}})
	}
	b.incRef(val)
	if cls, exact := obj.Type.Class(); exact {
		if rc, ok := b.env.ClassByName(cls); ok {
			if slot, ok := rc.PropNames[name]; ok {
				b.emit(&Instr{Op: StPropSlot, I64: int64(slot), Args: []*SSATmp{obj, val}})
				b.decRef(obj)
				return
			}
		}
	}
	if b.shapeSpecOK(obj) {
		sp := b.sitePropShapes(pc)
		if sh := monoShape(b.env.Shapes, sp); sh != nil {
			if slot, ok := sh.Lookup(name); ok && val.Type.SubtypeOf(types.FromKind(sh.SlotKind(slot))) {
				b.guardShape(obj, sh, specExit)
				b.emit(&Instr{Op: StPropSlot, I64: int64(slot), Args: []*SSATmp{obj, val}})
				b.decRef(obj)
				return
			}
		}
		if !megamorphic(sp) {
			b.emit(&Instr{Op: StPropIC, Str: name, Args: []*SSATmp{obj, val},
				Exit: b.catchExit()})
			b.decRef(obj)
			return
		}
	}
	b.emit(&Instr{Op: StPropGeneric, Str: name, Args: []*SSATmp{obj, val},
		Exit: b.catchExit()})
	b.decRef(obj)
}

// shapeSpecOK gates shape-based speculation: shapes enabled, not a
// profiling translation, and the receiver statically known to be an
// object (non-objects must reach the generic helper's error path).
func (b *builder) shapeSpecOK(obj *SSATmp) bool {
	return b.cfg.EnableShapes && !b.cfg.Profiling && obj.Type.SubtypeOf(types.TObj)
}

// sitePropShapes returns the profiled shape histogram for a bytecode
// site, nil when unprofiled.
func (b *builder) sitePropShapes(pc int) *profile.ShapeProfile {
	if b.cfg.Counters == nil {
		return nil
	}
	return b.cfg.Counters.PropShapes(profile.CallSite{FuncID: b.curFn().ID, PC: pc})
}

// monoShape returns the site's single observed shape when the profile
// is warm and strictly monomorphic, nil otherwise.
func monoShape(tree *shapes.Tree, sp *profile.ShapeProfile) *shapes.Shape {
	if tree == nil || sp == nil || sp.Total < profile.ShapeWarmMin || len(sp.Shapes) != 1 {
		return nil
	}
	return tree.ByID(sp.Shapes[0].Shape)
}

// megamorphic reports a site profiled with more shapes than a
// polymorphic inline cache holds.
func megamorphic(sp *profile.ShapeProfile) bool {
	return sp != nil && len(sp.Shapes) > icCapacity
}

// icCapacity is the polymorphic inline cache size: sites observed
// with more shapes go straight to the generic helper instead of
// thrashing the cache.
const icCapacity = 4

func (b *builder) guardShape(obj *SSATmp, sh *shapes.Shape, specExit *ExitDesc) {
	b.emit(&Instr{Op: GuardShape, I64: int64(sh.ID), Args: []*SSATmp{obj},
		Exit: specExit})
}

// trampoline makes a block that transfers control to pc (chain jump
// or region exit), capturing the current stack.
func (b *builder) trampoline(pc int, ri int) *Block {
	saveCur, saveStack := b.cur, b.stack
	tb := b.out.NewBlock(pc)
	tb.Weight = saveCur.Weight
	b.cur = tb
	b.stack = append([]*SSATmp(nil), saveStack...)
	b.jumpToPC(pc, ri)
	b.cur, b.stack = saveCur, saveStack
	return tb
}

// lowerIncDec handles IncDecL with specialization; returns done=true
// when it had to bail to the interpreter.
func (b *builder) lowerIncDec(in hhbc.Instr) bool {
	slot := b.slot(in.A)
	t := b.localType(slot)
	inc := in.B == hhbc.PreInc || in.B == hhbc.PostInc
	post := in.B == hhbc.PostInc || in.B == hhbc.PostDec
	switch {
	case t.SubtypeOf(types.TInt):
		old := b.ldLoc(slot)
		one := b.constInt(1)
		op := AddInt
		if !inc {
			op = SubInt
		}
		nv := b.def(op, types.TInt, old, one)
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{nv}})
		if post {
			b.push(old)
		} else {
			b.push(nv)
		}
		b.setLocalType(slot, types.TInt)
	case t.SubtypeOf(types.TDbl):
		old := b.ldLoc(slot)
		one := b.constDbl(1)
		op := AddDbl
		if !inc {
			op = SubDbl
		}
		nv := b.def(op, types.TDbl, old, one)
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{nv}})
		if post {
			b.push(old)
		} else {
			b.push(nv)
		}
		b.setLocalType(slot, types.TDbl)
	case t.SubtypeOf(types.TNull) || t.SubtypeOf(types.TUninit):
		var nv *SSATmp
		if inc {
			nv = b.constInt(1)
		} else {
			nv = b.constNull()
		}
		b.emit(&Instr{Op: StLoc, I64: int64(slot), Args: []*SSATmp{nv}})
		if post {
			b.push(b.constNull())
		} else {
			b.push(nv)
		}
		b.setLocalType(slot, nv.Type)
	default:
		b.emit(&Instr{Op: SideExit, Exit: b.exitDesc(b.bcPC, false)})
		return true
	}
	return false
}
