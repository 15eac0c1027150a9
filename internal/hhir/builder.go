package hhir

import (
	"math"
	"slices"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/slab"
	"repro/internal/types"
)

// BuildConfig selects the lowering mode and optimizations.
type BuildConfig struct {
	// Profiling inserts ProfCount/ProfCallSite instrumentation and,
	// per Section 4.1, skips the most expensive optimizations.
	Profiling bool
	// Counter is the profile counter for profiling translations.
	Counter profile.TransID

	// EnableInlining turns partial inlining on (optimized mode).
	EnableInlining bool
	// EnableMethodDispatch turns profile-guided devirtualization on.
	EnableMethodDispatch bool
	// DisableInlineCache additionally removes inline caching (the
	// paper's Figure 10 "method dispatch" ablation disables both).
	DisableInlineCache bool
	// EnableShapes turns shape-guarded property access on: profiled
	// monomorphic sites compile to GuardShape + fixed-slot access,
	// polymorphic/unprofiled sites to a self-filling shape IC, and
	// megamorphic sites (>4 shapes) stay on the generic helper
	// (DESIGN.md §14). Profiling translations instead record the
	// receiver shape per site and keep the generic paths. The JIT
	// always sets it; it is a field only because the ledger's replay of
	// the back end sets it too.
	EnableShapes bool
	// Counters supplies call-target profiles in optimized mode.
	Counters *profile.Counters
	// RegionOf returns a callee's region for inlining (nil to decline).
	RegionOf func(f *hhbc.Func, argTypes []types.Type) *region.Desc

	// MaxInlineInstrs caps inlinable callee size.
	MaxInlineInstrs int
	// MaxInlineDepth caps nesting.
	MaxInlineDepth int
}

// builder lowers one region into HHIR.
type builder struct {
	cfg  BuildConfig
	unit *hhbc.Unit
	env  *interp.Env
	fn   *hhbc.Func
	out  *Unit

	// rc is the region being lowered; partial inlining swaps in the
	// callee's region context and restores afterwards.
	rc regionCtx

	// per-block lowering state
	cur   *Block
	stack []*SSATmp
	// localTypes[slot] is the known type of a frame slot at the current
	// point, Bottom when nothing is known. It spans the extended frame:
	// fn's locals, then each inlined callee's, so its length is the
	// next free extended-frame slot.
	localTypes []types.Type

	// inline context stack (innermost last; nil entries impossible).
	inlines []*inlineState

	// current bytecode pc (for exits)
	bcPC int

	// Type flow across region blocks (flow.go). violated collects the
	// assumptions this attempt's late edges broke; denied accumulates
	// them over attempts, and flowOff ends the assuming altogether.
	violated, denied []flowFact
	flowOff          bool
	stats            BuildStats
}

// regionCtx is the lowering context for one region (caller's or an
// inlined callee's).
type regionCtx struct {
	desc *region.Desc
	// hblocks maps region-block index -> HHIR block.
	hblocks []*Block
	// chainNext maps region-block index -> next chain member (-1 none).
	chainNext []int

	// Type flow (flow.go). The context's function owns frame slots
	// [base, base+nslots). in[ri*nslots+s] is the union, over the edges
	// into block ri seen so far, of the type of slot base+s (Bottom: no
	// fact, because some edge had none); once state[ri] is flowLowered
	// it is what the block was lowered under, and later edges are
	// checked against it. The stack half of an edge accumulates in the
	// types of hblocks[ri].Params the same way.
	base, nslots int
	in           []types.Type
	state        []uint8
}

// newRegionCtx creates the HHIR blocks of desc, whose function's
// locals start at frame slot base.
func newRegionCtx(out *Unit, desc *region.Desc, base int) regionCtx {
	rc := regionCtx{desc: desc, base: base, nslots: desc.Entry().Func.NumLocals}
	n := len(desc.Blocks)
	rc.in = out.mem.typeLists.Window(n * rc.nslots)
	rc.state = out.mem.states.Window(n)
	rc.hblocks = out.mem.blockLists.Window(n)
	rc.chainNext = out.mem.ints.Window(n)
	for i := range rc.chainNext {
		rc.chainNext[i] = -1
	}
	for _, chain := range desc.Chains {
		for k := 0; k+1 < len(chain); k++ {
			rc.chainNext[chain[k]] = chain[k+1]
		}
	}
	for i, rb := range desc.Blocks {
		hb := out.NewBlock(rb.Start)
		hb.Weight = desc.Weight[i]
		// Room for what a block of this size usually lowers to: a guard
		// per precondition and about two instructions per bytecode.
		hb.Instrs = out.mem.instrLists.Window(len(rb.Preconds) + 2*rb.NumInstrs + 2)[:0]
		hb.Params = out.mem.refs.Window(rb.EntryStackDepth)
		for d := range hb.Params {
			p := out.NewTmp(types.TBottom) // typed when the block is lowered
			p.DefBlock = hb
			hb.Params[d] = p
		}
		rc.hblocks[i] = hb
	}
	return rc
}

// chainAt returns the retranslation chain whose head starts at pc, nil
// when the region has none there.
func (rc *regionCtx) chainAt(pc int) []int {
	for _, chain := range rc.desc.Chains {
		if rc.desc.Blocks[chain[0]].Start == pc {
			return chain
		}
	}
	return nil
}

type inlineState struct {
	ctx      *InlineCtx
	callee   *hhbc.Func
	slotBase int
	retBlock *Block // merge block; param 0 = return value
}

// Build lowers desc to HHIR. The unit comes from a pool of released
// ones (Release), with their memory.
func Build(u *hhbc.Unit, env *interp.Env, desc *region.Desc, cfg BuildConfig) (*Unit, error) {
	if cfg.MaxInlineInstrs == 0 {
		cfg.MaxInlineInstrs = 60
	}
	if cfg.MaxInlineDepth == 0 {
		cfg.MaxInlineDepth = 2
	}
	b := &builder{cfg: cfg, unit: u, env: env, fn: desc.Entry().Func, out: units.Get().(*Unit)}
	// Assume, then verify: an attempt whose late edges broke facts
	// their targets were lowered under is thrown away and the region is
	// lowered again without those facts (flow.go).
	rebuilds := 0
	for {
		if err := b.lowerRegion(desc); err != nil {
			Release(b.out)
			return nil, err
		}
		if len(b.violated) == 0 {
			break
		}
		b.denied = append(b.denied, b.violated...)
		b.violated = b.violated[:0]
		rebuilds++
		b.flowOff = rebuilds == maxFlowRebuilds
	}
	b.stats.Rebuilds = rebuilds
	b.out.Stats = b.stats
	b.out.ExtFrameSlots = len(b.localTypes)
	b.out.mem.locals = b.localTypes // inlining may have grown it
	if len(desc.Blocks) == 1 && len(b.localTypes) == b.fn.NumLocals && !cfg.Profiling {
		b.out.EndLocals = b.localTypes
		b.out.EndStack = b.out.mem.typeLists.Window(len(b.stack))
		for i, v := range b.stack {
			b.out.EndStack[i] = v.Type
		}
	}
	b.out.HasDtor = slices.ContainsFunc(u.Classes, func(c *hhbc.ClassDef) bool { return c.HasDtor })
	PruneUnreachable(b.out) // region blocks no edge reached were not lowered
	markColdBlocks(b.out)
	return b.out, nil
}

// lowerRegion lowers desc into the emptied unit.
func (b *builder) lowerRegion(desc *region.Desc) error {
	b.out.reset(b.fn)
	b.localTypes = slab.Grow(b.out.mem.locals, b.fn.NumLocals)
	clear(b.localTypes)
	b.stats = BuildStats{}
	b.rc = newRegionCtx(b.out, desc, 0)
	b.out.Entry = b.rc.hblocks[0]
	b.rc.state[0] = flowMerged // entered from outside, assuming nothing
	return b.lowerBlocks()
}

// lowerBlocks lowers the blocks of the current region context that an
// edge has reached, in an order that puts every forward edge into a
// block before the block, and again for blocks only back-edges reach.
// A block nothing jumps to is left out: lowered under no facts, its
// own back-edges would break what live blocks assumed.
func (b *builder) lowerBlocks() error {
	order := b.rc.desc.LoweringOrder(b.out.mem.ints.Window(4 * len(b.rc.desc.Blocks)))
	for again := true; again; {
		again = false
		for _, ri := range order {
			if b.rc.state[ri] != flowMerged {
				continue
			}
			again = true
			b.startBlock(ri)
			if err := b.lowerBlockBody(ri); err != nil {
				if len(b.inlines) == 0 {
					return err
				}
				// Lowering trouble inside an inline body: bail to the
				// interpreter at the callee entry.
				b.emit(Instr{Op: SideExit, Exit: b.exitDesc(0, false)})
			}
		}
	}
	return nil
}

// markColdBlocks hints blocks by weight for hot/cold splitting.
func markColdBlocks(u *Unit) {
	var max uint64
	for _, b := range u.Blocks {
		if b.Weight > max {
			max = b.Weight
		}
	}
	for _, b := range u.Blocks {
		switch {
		case max > 0 && b.Weight*10 < max:
			b.Hint = HintCold
		case b.Weight == max && max > 0:
			b.Hint = HintHot
		}
	}
}

// emit appends a copy of in, cut from the unit's slab, to the current
// block and makes it the definition of its result.
func (b *builder) emit(in Instr) *Instr {
	p := b.out.mem.instrs.One()
	*p = in
	p.Block = b.cur
	if p.Dst != nil {
		p.Dst.Def = p
	}
	list := b.cur.Instrs
	if len(list) == cap(list) {
		// Outgrew the room newRegionCtx guessed: move to a larger window.
		list = b.out.mem.instrLists.Window(2*len(list) + 4)[:len(list)]
		copy(list, b.cur.Instrs)
	}
	b.cur.Instrs = append(list, p)
	return p
}

func (b *builder) def(op Opcode, t types.Type, args ...*SSATmp) *SSATmp {
	dst := b.out.NewTmp(t)
	b.emit(Instr{Op: op, Dst: dst, Args: b.out.args(args...)})
	return dst
}

// exitDesc snapshots the current frame state for a side exit.
func (b *builder) exitDesc(bcOff int, isCatch bool) *ExitDesc {
	ex := b.out.mem.exits.One()
	*ex = ExitDesc{ID: b.out.nextExit, BCOff: bcOff, IsCatch: isCatch, Stack: b.out.args(b.stack...)}
	b.out.nextExit++
	if n := len(b.inlines); n > 0 {
		ex.Inline = b.inlines[n-1].ctx
	}
	return ex
}

// catchExit is attached to throwing ops.
func (b *builder) catchExit() *ExitDesc { return b.exitDesc(b.bcPC, true) }

func (b *builder) push(t *SSATmp) { b.stack = append(b.stack, t) }
func (b *builder) pop() *SSATmp {
	t := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	return t
}
func (b *builder) top() *SSATmp { return b.stack[len(b.stack)-1] }

// popN pops the top n values, deepest first.
func (b *builder) popN(n int) []*SSATmp {
	at := len(b.stack) - n
	vals := b.out.args(b.stack[at:]...)
	b.stack = b.stack[:at]
	return vals
}

func (b *builder) localType(slot int) types.Type {
	if t := b.localTypes[slot]; !t.IsBottom() {
		return t
	}
	return types.TCell
}

func (b *builder) setLocalType(slot int, t types.Type) { b.localTypes[slot] = t }

// ldLoc loads a local with its known type.
func (b *builder) ldLoc(slot int) *SSATmp {
	t := b.localType(slot)
	dst := b.out.NewTmp(hhbc.CGetType(t))
	b.emit(Instr{Op: LdLoc, Dst: dst, I64: int64(slot)})
	return dst
}

// stLoc stores a value into a local and updates the tracked type.
func (b *builder) stLoc(slot int, v *SSATmp) {
	b.emit(Instr{Op: StLoc, I64: int64(slot), Args: b.out.args(v)})
	b.setLocalType(slot, v.Type)
}

// lowerBlockBody emits guards and instructions for region block ri of
// the current region context (caller or inlined callee).
func (b *builder) lowerBlockBody(ri int) error {
	rb := b.rc.desc.Blocks[ri]

	// Emit guards. Chain members branch to the next chain member on
	// failure; the last falls back to a side exit. The region entry's
	// preconditions are enforced by the dispatcher, so they lower to
	// asserts; an inlined callee's entry is an ordinary block whose
	// preconditions the call's argument types prove (suitableForInline).
	isEntry := ri == 0 && len(b.inlines) == 0
	b.bcPC = rb.Start
	for _, g := range rb.Preconds {
		b.lowerGuard(ri, rb, g, isEntry)
	}
	if b.cfg.Profiling && rb.ProfCounter >= 0 {
		b.emit(Instr{Op: ProfCount, I64: int64(rb.ProfCounter)})
	}

	// Lower the body.
	fn := b.curFn()
	for pc := rb.Start; pc < rb.End(); pc++ {
		b.bcPC = pc
		done, err := b.lowerInstr(fn.Instrs[pc], pc, ri)
		if err != nil {
			return err
		}
		if done {
			return nil // terminator emitted
		}
	}
	// Fell off the end of the block: continue at End().
	b.jumpToPC(rb.End(), ri)
	return nil
}

// lowerGuard emits one precondition check, unless the types that
// flowed into the block already prove it; what was known is kept where
// it is narrower than the guard.
func (b *builder) lowerGuard(ri int, rb *region.Block, g region.Guard, isEntry bool) {
	switch g.Loc.Kind {
	case region.LocLocal:
		slot := b.slot(int32(g.Loc.Slot))
		known := b.localType(slot)
		switch {
		case isEntry || types.TCell.SubtypeOf(g.Type):
			// Dispatcher-checked or vacuous: assert.
		case known.SubtypeOf(g.Type):
			b.stats.GuardsProven++
		default:
			// The load is a value like any other: LoadElim shares it with
			// the block's own loads, or replaces it by a value already in a
			// register.
			b.checkType(ri, rb, b.ldLoc(slot), g.Type)
		}
		b.setLocalType(slot, refine(known, g.Type))
	case region.LocStack:
		d := g.Loc.Slot
		if d >= len(b.stack) {
			return
		}
		v := b.stack[d]
		if v.Type.SubtypeOf(g.Type) {
			if !isEntry && !types.TInitCell.SubtypeOf(g.Type) {
				b.stats.GuardsProven++
			}
			return
		}
		if isEntry {
			// Entry stack slots come from the frame: load + assert.
			b.stack[d] = b.def(AssertType, refine(v.Type, g.Type), v)
			return
		}
		b.stack[d] = b.checkType(ri, rb, v, g.Type)
	}
}

// checkType emits the guard that v is a want and returns v so refined.
func (b *builder) checkType(ri int, rb *region.Block, v *SSATmp, want types.Type) *SSATmp {
	dst := b.out.NewTmp(refine(v.Type, want))
	b.emitGuard(ri, rb, Instr{Op: CheckType, Dst: dst, Args: b.out.args(v), TypeParam: want})
	return dst
}

// refine is what is known of a value of type known once a check for
// want has passed. Intersecting rather than overwriting keeps an exact
// class under a widened guard (bare Obj at a shape site).
func refine(known, want types.Type) types.Type {
	if t := known.Intersect(want); !t.IsBottom() {
		return t
	}
	return want
}

// emitGuard emits a check whose failure continues at the next chain
// member — an edge that carries the state before the check refines
// it — or, from the last member, takes a side exit.
func (b *builder) emitGuard(ri int, rb *region.Block, in Instr) {
	if failTo := b.rc.chainNext[ri]; failTo >= 0 {
		b.flowEdge(failTo, b.stack)
		in.Taken = b.rc.hblocks[failTo]
		in.TakenArgs = b.out.args(b.stack...)
	} else {
		in.Exit = b.exitDesc(rb.Start, false)
	}
	b.emit(in)
	b.stats.Guards++
}

// jumpToPC wires control to the region block (chain) covering pc in
// the current region context, or leaves the region: a ReqBind for the
// outer region, a side exit (with frame materialization) from inlined
// code.
func (b *builder) jumpToPC(pc int, fromRI int) {
	if chain := b.rc.chainAt(pc); chain != nil {
		target := b.pickChainTarget(chain)
		tb := b.rc.desc.Blocks[target]
		// The region entry asserts its preconditions instead of
		// checking them (lowerBlockBody), so a jump back to it from
		// inside the region must prove them; otherwise it leaves
		// through the dispatcher like any other region exit.
		provesEntry := target != 0 || len(b.inlines) > 0 || b.precondsSatisfied(tb)
		if tb.EntryStackDepth == len(b.stack) && provesEntry {
			b.flowEdge(target, b.stack)
			b.emit(Instr{Op: Jmp, Next: b.rc.hblocks[target],
				NextArgs: b.out.args(b.stack...)})
			return
		}
	}
	if len(b.inlines) > 0 {
		// The callee region does not cover pc: materialize the callee
		// frame and continue in the interpreter.
		b.emit(Instr{Op: SideExit, Exit: b.exitDesc(pc, false)})
		return
	}
	b.emit(Instr{Op: ReqBind, I64: int64(pc), Exit: b.exitDesc(pc, false)})
}

// pickChainTarget returns the first member of chain whose
// preconditions are satisfied by the current known types; if none
// provably match, the chain head (runtime checks cascade).
func (b *builder) pickChainTarget(chain []int) int {
	for _, ci := range chain {
		if b.precondsSatisfied(b.rc.desc.Blocks[ci]) {
			return ci
		}
	}
	return chain[0]
}

func (b *builder) precondsSatisfied(rb *region.Block) bool {
	for _, g := range rb.Preconds {
		switch g.Loc.Kind {
		case region.LocLocal:
			if !b.localType(b.slot(int32(g.Loc.Slot))).SubtypeOf(g.Type) {
				return false
			}
		case region.LocStack:
			if g.Loc.Slot >= len(b.stack) || !b.stack[g.Loc.Slot].Type.SubtypeOf(g.Type) {
				return false
			}
		}
	}
	return true
}

// constInt etc. emit constants.
func (b *builder) constInt(v int64) *SSATmp {
	dst := b.out.NewTmp(types.TInt)
	b.emit(Instr{Op: DefConstInt, Dst: dst, I64: v})
	return dst
}

func (b *builder) constDbl(v float64) *SSATmp {
	dst := b.out.NewTmp(types.TDbl)
	b.emit(Instr{Op: DefConstDbl, Dst: dst, I64: int64(math.Float64bits(v))})
	return dst
}

func (b *builder) constBool(v bool) *SSATmp {
	dst := b.out.NewTmp(types.TBool)
	n := int64(0)
	if v {
		n = 1
	}
	b.emit(Instr{Op: DefConstBool, Dst: dst, I64: n})
	return dst
}

func (b *builder) constNull() *SSATmp {
	dst := b.out.NewTmp(types.TNull)
	b.emit(Instr{Op: DefConstNull, Dst: dst})
	return dst
}

// constStr is a unit literal: static, so no IncRef or DecRef of it is
// emitted (incRef and decRef ask MaybeCounted).
func (b *builder) constStr(s string) *SSATmp {
	dst := b.out.NewTmp(types.TStaticStr)
	b.emit(Instr{Op: DefConstStr, Dst: dst, Str: s})
	return dst
}

func (b *builder) incRef(v *SSATmp) {
	if v.Type.MaybeCounted() {
		b.emit(Instr{Op: IncRef, Args: b.out.args(v)})
	}
}

func (b *builder) decRef(v *SSATmp) {
	if v.Type.MaybeCounted() {
		b.emit(Instr{Op: DecRef, Args: b.out.args(v)})
	}
}

func (b *builder) decRefs(vs []*SSATmp) {
	for _, v := range vs {
		b.decRef(v)
	}
}
