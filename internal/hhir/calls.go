package hhir

import (
	"strings"

	"repro/internal/hhbc"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
)

// lowerCallD lowers FCallD: direct function call, possibly inlined.
func (b *builder) lowerCallD(in hhbc.Instr, pc int) error {
	name := b.unit.Strings[in.B]
	nargs := int(in.A)
	callee, isUser := b.unit.FuncByName(name)
	if !isUser {
		// Resolved to a builtin (or a runtime error) at execution.
		args := b.popN(nargs)
		dst := b.out.NewTmp(types.TInitCell)
		b.emit(Instr{Op: CallBuiltin, Dst: dst, Str: name,
			Args: args, Exit: b.catchExit()})
		b.push(dst)
		return nil
	}

	if b.tryInline(callee, nil, nargs, pc) {
		return nil
	}

	args := b.popN(nargs)
	dst := b.out.NewTmp(types.TInitCell)
	b.emit(Instr{Op: CallFunc, Dst: dst, Str: name, I64: int64(callee.ID),
		Args: args, Exit: b.catchExit()})
	b.push(dst)
	return nil
}

// lowerCallBuiltin lowers FCallBuiltin, open-coding hot builtins.
func (b *builder) lowerCallBuiltin(in hhbc.Instr) error {
	name := b.unit.Strings[in.B]
	nargs := int(in.A)

	// count() on a known array lowers to a length load — the paper's
	// CountArray example (Figure 6).
	if name == "count" && nargs == 1 && b.top().Type.SubtypeOf(types.TArr) {
		arr := b.pop()
		r := b.def(CountArray, types.TInt, arr)
		b.decRef(arr)
		b.push(r)
		return nil
	}

	args := b.popN(nargs)
	t := types.TInitCell
	// The declared result type is used for a fixed-arity native called
	// with that many arguments; variadic ones (substr, max, min) stay
	// InitCell here.
	if bi, ok := runtime.LookupBuiltin(name); ok && bi.Arity == nargs {
		t = bi.Ret
	}
	dst := b.out.NewTmp(t)
	b.emit(Instr{Op: CallBuiltin, Dst: dst, Str: name, Args: args, Exit: b.catchExit()})
	b.push(dst)
	return nil
}

// lowerCallMethod lowers FCallObjMethodD with the method-dispatch
// optimization (Section 5.3.3): (a) devirtualize monomorphic calls,
// (b) common-base-class calls, (c) common-interface calls, falling
// back to (d) inline caching.
func (b *builder) lowerCallMethod(in hhbc.Instr, pc int) error {
	name := b.unit.Strings[in.B]
	nargs := int(in.A)

	// Snapshot the exit state while obj+args are still on the stack,
	// so a failed speculation re-executes the call in the interpreter.
	specExit := b.exitDesc(pc, false)

	args := b.popN(nargs)
	obj := b.pop()

	if b.cfg.Profiling {
		b.emit(Instr{Op: ProfCallSite, I64: int64(pc), Args: b.out.args(obj)})
		b.emitMethodCacheCall(name, pc, obj, args)
		return nil
	}

	// Statically known exact class: direct call, no guard. (Counted
	// as part of the method-dispatch optimization: the exactness
	// comes from the same specialization machinery.)
	if cls, exact := obj.Type.Class(); exact && b.cfg.EnableMethodDispatch {
		if rc, ok := b.env.ClassByName(cls); ok {
			if id, ok := rc.LookupMethod(name); ok {
				b.emitDirectMethodCall(id, obj, args, pc)
				return nil
			}
		}
	}

	if b.cfg.EnableMethodDispatch && b.cfg.Counters != nil {
		site := profile.CallSite{FuncID: b.curFn().ID, PC: pc}
		if tp := b.cfg.Counters.CallTargets(site); tp != nil && tp.Total >= 8 {
			// (a) monomorphic: guard the exact class, call directly.
			dom := tp.Classes[0]
			if float64(dom.Count)/float64(tp.Total) >= 0.95 {
				if rc, ok := b.env.ClassByName(dom.Class); ok {
					if id, ok := rc.LookupMethod(name); ok {
						chk := b.out.NewTmp(types.ObjOfClass(dom.Class, true))
						b.emit(Instr{Op: CheckCls, Dst: chk, I64: int64(rc.ClassID),
							Args: b.out.args(obj), Exit: specExit})
						b.emitDirectMethodCall(id, chk, args, pc)
						return nil
					}
				}
			}
			// (b)/(c): every observed receiver resolves to one target
			// and no other loaded class overrides it differently:
			// devirtualize without a guard.
			if id, ok := b.commonTarget(tp, name); ok {
				b.emitDirectMethodCall(id, obj, args, pc)
				return nil
			}
		}
	}

	// (d) inline caching.
	b.emitMethodCacheCall(name, pc, obj, args)
	return nil
}

// commonTarget checks whether all observed receivers (and all their
// loaded subclasses) resolve the method to the same function.
func (b *builder) commonTarget(tp *profile.TargetProfile, name string) (int, bool) {
	target := -1
	for _, cc := range tp.Classes {
		rc, ok := b.env.ClassByName(cc.Class)
		if !ok {
			return 0, false
		}
		id, ok := rc.LookupMethod(name)
		if !ok {
			return 0, false
		}
		if target == -1 {
			target = id
		} else if target != id {
			return 0, false
		}
	}
	if target == -1 {
		return 0, false
	}
	// Any loaded class resolving this method differently makes the
	// speculation unsound without a guard.
	for _, rc := range b.env.Classes {
		if id, ok := rc.LookupMethod(name); ok && id != target {
			return 0, false
		}
	}
	return target, true
}

func (b *builder) emitDirectMethodCall(funcID int, obj *SSATmp, args []*SSATmp, pc int) {
	callee := b.unit.Funcs[funcID]
	if b.tryInlineMethod(callee, obj, args, pc) {
		return
	}
	dst := b.out.NewTmp(types.TInitCell)
	all := b.out.mem.refs.Window(len(args) + 1)
	all[0] = obj
	copy(all[1:], args)
	b.emit(Instr{Op: CallMethodD, Dst: dst, I64: int64(funcID), Str: callee.FullName(),
		Args: all, Exit: b.catchExit()})
	b.decRef(obj)
	b.push(dst)
}

func (b *builder) emitMethodCacheCall(name string, pc int, obj *SSATmp, args []*SSATmp) {
	dst := b.out.NewTmp(types.TInitCell)
	all := b.out.mem.refs.Window(len(args) + 1)
	all[0] = obj
	copy(all[1:], args)
	site := int64(b.curFn().ID)<<20 | int64(pc)
	if b.cfg.DisableInlineCache {
		site = -1 // full method lookup on every call
	}
	b.emit(Instr{Op: CallMethodC, Dst: dst, Str: strings.ToLower(name),
		I64: site, Args: all, Exit: b.catchExit()})
	b.decRef(obj)
	b.push(dst)
}

// tryInline attempts partial inlining of a direct call; args are
// still on the virtual stack (nargs of them).
func (b *builder) tryInline(callee *hhbc.Func, this *SSATmp, nargs, pc int) bool {
	if !b.inlinable(callee) {
		return false
	}
	args := b.stack[len(b.stack)-nargs:]
	argTypes := b.out.mem.typeLists.Window(len(args))
	for i, a := range args {
		argTypes[i] = a.Type
	}
	desc := b.cfg.RegionOf(callee, argTypes)
	if desc == nil || !b.suitableForInline(callee, desc, argTypes) {
		return false
	}
	popped := b.popN(nargs)
	b.inlineCall(callee, desc, this, popped, pc)
	return true
}

func (b *builder) tryInlineMethod(callee *hhbc.Func, obj *SSATmp, args []*SSATmp, pc int) bool {
	if !b.inlinable(callee) {
		return false
	}
	argTypes := b.out.mem.typeLists.Window(len(args))
	for i, a := range args {
		argTypes[i] = a.Type
	}
	desc := b.cfg.RegionOf(callee, argTypes)
	if desc == nil || !b.suitableForInline(callee, desc, argTypes) {
		return false
	}
	b.inlineCall(callee, desc, obj, args, pc)
	return true
}

func (b *builder) inlinable(callee *hhbc.Func) bool {
	if !b.cfg.EnableInlining || b.cfg.Profiling || b.cfg.RegionOf == nil {
		return false
	}
	if len(b.inlines) >= b.cfg.MaxInlineDepth {
		return false
	}
	if len(callee.EHTable) > 0 {
		return false
	}
	if len(callee.Instrs) > 4*b.cfg.MaxInlineInstrs {
		return false
	}
	// Iterator slots are per-frame; inlined frames do not have them.
	for _, in := range callee.Instrs {
		if in.Op == hhbc.OpIterInitL {
			return false
		}
	}
	return true
}

// suitableForInline verifies the callee region can be spliced in:
// bounded size, entry at pc 0 with an empty eval stack, and entry
// preconditions provable from the argument types.
func (b *builder) suitableForInline(callee *hhbc.Func, desc *region.Desc, argTypes []types.Type) bool {
	if desc.NumInstrs() > b.cfg.MaxInlineInstrs || len(desc.Blocks) > 8 {
		return false
	}
	entry := desc.Entry()
	if entry.Func != callee || entry.Start != 0 || entry.EntryStackDepth != 0 {
		return false
	}
	for _, g := range entry.Preconds {
		if g.Loc.Kind != region.LocLocal {
			return false
		}
		slot := g.Loc.Slot
		var t types.Type
		switch {
		case slot < len(argTypes):
			t = argTypes[slot]
		case slot < len(callee.Params):
			p := callee.Params[slot]
			if p.HasDefault {
				t = types.FromKind(p.DefaultKind)
			} else {
				t = types.TNull
			}
		default:
			t = types.TUninit
		}
		if !t.SubtypeOf(g.Type) {
			return false
		}
	}
	return true
}

// inlineCall splices the callee's region into the current block.
// args are owned; ownership transfers into the inline frame's locals.
func (b *builder) inlineCall(callee *hhbc.Func, desc *region.Desc, this *SSATmp, args []*SSATmp, pc int) {
	slotBase := len(b.localTypes)
	b.localTypes = append(b.localTypes, make([]types.Type, callee.NumLocals)...)

	// Bind arguments into the extended frame. The other locals are
	// reset: the frame extension outlives the call, so a loop that
	// comes back here would otherwise find the previous call's values.
	var uninit *SSATmp
	for i := 0; i < callee.NumLocals; i++ {
		var v *SSATmp
		switch {
		case i < len(args) && i < len(callee.Params):
			v = args[i]
		case i < len(callee.Params):
			v = b.paramDefaultConst(callee.Params[i])
		default:
			if uninit == nil {
				uninit = b.constNullOfUninit()
			}
			v = uninit
		}
		b.emit(Instr{Op: StLoc, I64: int64(slotBase + i), Args: b.out.args(v)})
		b.setLocalType(slotBase+i, v.Type)
	}
	for i := len(callee.Params); i < len(args); i++ {
		b.decRef(args[i])
	}

	ictx := b.out.mem.inlines.One()
	*ictx = InlineCtx{
		Callee: callee, LocalsBase: slotBase, This: this, RetBCOff: pc + 1,
		CallerStack: b.out.args(b.stack...),
	}
	if n := len(b.inlines); n > 0 {
		ictx.Parent = b.inlines[n-1].ctx
	}
	retBlock := b.out.NewBlock(pc + 1)
	retBlock.Weight = b.cur.Weight
	retParam := b.out.NewTmp(types.TBottom) // the union of what the returns pass
	retParam.DefBlock = retBlock
	retBlock.Params = b.out.args(retParam)

	ist := &inlineState{ctx: ictx, callee: callee, slotBase: slotBase, retBlock: retBlock}
	b.inlines = append(b.inlines, ist)

	// Swap region contexts and lower the callee. Its entry block is an
	// ordinary block of the flow: the jump into it carries the types
	// just bound.
	savedRC, savedStack := b.rc, b.stack
	savedPC := b.bcPC
	b.rc = newRegionCtx(b.out, desc, slotBase)
	b.flowEdge(0, nil)
	b.emit(Instr{Op: Jmp, Next: b.rc.hblocks[0]})

	_ = b.lowerBlocks() // never fails inside an inline

	// Restore caller context and continue after the call. Every return
	// has been lowered by now, so the merge block's parameter has its
	// final type.
	b.rc, b.stack = savedRC, savedStack
	b.bcPC = savedPC
	b.inlines = b.inlines[:len(b.inlines)-1]
	b.cur = retBlock
	b.settleParam(retParam)
	if this != nil {
		b.decRef(this)
	}
	b.push(retParam)
}

// paramDefaultConst materializes a parameter default.
func (b *builder) paramDefaultConst(p hhbc.Param) *SSATmp {
	if !p.HasDefault {
		return b.constNull()
	}
	switch p.DefaultKind {
	case types.KInt:
		return b.constInt(p.DefaultInt)
	case types.KDbl:
		return b.constDbl(p.DefaultDbl)
	case types.KBool:
		return b.constBool(p.DefaultInt != 0)
	case types.KStr:
		return b.constStr(p.DefaultStr)
	default:
		return b.constNull()
	}
}

// endInline routes an inlined RetC to the merge block, releasing the
// inline frame's locals first (the InlineReturn teardown).
func (b *builder) endInline(v *SSATmp) {
	ist := b.inlines[len(b.inlines)-1]
	for i := 0; i < ist.callee.NumLocals; i++ {
		slot := ist.slotBase + i
		t := b.localType(slot)
		if !t.MaybeCounted() && t != types.TCell {
			continue
		}
		old := b.ldLoc(slot)
		b.decRef(old)
	}
	b.emit(Instr{Op: EndInline, Args: b.out.args(v)})
	ret := ist.retBlock.Params[0]
	ret.Type = ret.Type.Union(v.Type)
	b.emit(Instr{Op: Jmp, Next: ist.retBlock, NextArgs: b.out.args(v)})
}
