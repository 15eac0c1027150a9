// Package hhir implements the HipHop Intermediate Representation: a
// typed, SSA-form IR lowered from bytecode regions. Most of the JIT's
// optimizations run here (Section 5.3): simplification, constant
// folding, DCE, GVN, load elimination, reference-counting elimination,
// partial inlining, and method-dispatch optimization.
package hhir

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/hhbc"
	"repro/internal/slab"
	"repro/internal/types"
)

// SSATmp is an SSA value.
type SSATmp struct {
	ID   int
	Type types.Type
	Def  *Instr // defining instruction (nil for block params)
	// DefBlock is set for block parameters.
	DefBlock *Block
}

func (t *SSATmp) String() string {
	if t == nil {
		return "t?"
	}
	return fmt.Sprintf("t%d:%s", t.ID, t.Type)
}

// ExitDesc describes a side exit: where interpretation resumes and
// how to rebuild the evaluation stack (bottom-up) at that point. It
// also carries the inline-frame context when the exit happens inside
// partially-inlined code (Section 5.3.1: side exits can materialize
// callee frames).
type ExitDesc struct {
	// ID numbers the unit's exits densely from 0 (NumExitIDs).
	ID int
	// BCOff is the bytecode pc to resume at.
	BCOff int
	// Stack are the values forming the eval stack at BCOff,
	// bottom-up.
	Stack []*SSATmp
	// IsCatch marks exits taken on thrown guest errors (resume =
	// unwind) rather than failed guards.
	IsCatch bool
	// Inline is non-nil when the exit occurs inside inlined code.
	Inline *InlineCtx
}

// InlineCtx records enough to materialize the callee frame at a side
// exit from partially-inlined code. Nested inlining chains contexts
// through Parent (side exits can materialize an arbitrary number of
// callee frames, Section 5.3.1).
type InlineCtx struct {
	Callee *hhbc.Func
	// LocalsBase is the first extended-frame slot holding the
	// callee's locals.
	LocalsBase int
	// This holds the receiver for inlined methods (nil otherwise).
	This *SSATmp
	// RetBCOff is the caller pc of the instruction after the call
	// (a pc in Parent's callee, or in the root function when Parent
	// is nil).
	RetBCOff int
	// CallerStack is the caller's eval stack below the call's result
	// (bottom-up) to restore after the callee returns.
	CallerStack []*SSATmp
	// Parent is the enclosing inline context (nil at depth 1).
	Parent *InlineCtx
}

// Instr is one HHIR instruction.
type Instr struct {
	Op   Opcode
	Dst  *SSATmp
	Args []*SSATmp
	// TypeParam refines checks and asserts.
	TypeParam types.Type
	// I64 / Str carry immediates: local slots, class ids, function
	// ids, comparison conditions, counters — per opcode.
	I64 int64
	Str string
	// Exit is the side exit taken when a check fails or a helper
	// throws.
	Exit *ExitDesc
	// Next and Taken are control-flow successors for terminators.
	Next, Taken *Block
	// TakenArgs/NextArgs feed the successor's block params.
	NextArgs, TakenArgs []*SSATmp
	// Table holds the dense jump-table targets of SwitchInt (Taken is
	// its default).
	Table []*Block

	Block *Block
	// dead marks instructions removed by DCE (filtered on commit).
	dead bool
}

func (in *Instr) String() string {
	var sb strings.Builder
	if in.Dst != nil {
		fmt.Fprintf(&sb, "%s = ", in.Dst)
	}
	sb.WriteString(in.Op.String())
	if !in.TypeParam.IsBottom() {
		fmt.Fprintf(&sb, "<%s>", in.TypeParam)
	}
	if in.I64 != 0 || in.Op.has(fI64) {
		fmt.Fprintf(&sb, " #%d", in.I64)
	}
	if in.Str != "" {
		fmt.Fprintf(&sb, " %q", in.Str)
	}
	for _, a := range in.Args {
		fmt.Fprintf(&sb, " %s", a)
	}
	if in.Taken != nil {
		fmt.Fprintf(&sb, " taken=B%d", in.Taken.ID)
	}
	if in.Next != nil && in.Op != Jmp {
		fmt.Fprintf(&sb, " next=B%d", in.Next.ID)
	}
	if in.Op == Jmp && in.Next != nil {
		fmt.Fprintf(&sb, " B%d", in.Next.ID)
	}
	if in.Exit != nil {
		fmt.Fprintf(&sb, " exit@%d", in.Exit.BCOff)
	}
	return sb.String()
}

// Block is an HHIR basic block.
type Block struct {
	ID     int
	Params []*SSATmp // block parameters (SSA phi replacement)
	Instrs []*Instr
	Preds  []*Block
	// Hint marks profile-based placement (hot path vs cold path).
	Hint BlockHint
	// Weight is the profiled execution count.
	Weight uint64
	// BCStart is the bytecode pc this block begins at (diagnostics).
	BCStart int
}

// BlockHint drives hot/cold splitting.
type BlockHint uint8

const (
	HintNeutral BlockHint = iota
	HintHot
	HintCold
)

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// eachSucc calls fn with each successor block, including mid-block
// guard targets (guards may branch to the next retranslation in a
// chain without ending the block), in instruction order and once per
// edge.
func (b *Block) eachSucc(fn func(s *Block)) {
	for _, in := range b.Instrs {
		if in.dead {
			continue
		}
		if in.Taken != nil {
			fn(in.Taken)
		}
		if in.Next != nil {
			fn(in.Next)
		}
		for _, t := range in.Table {
			fn(t)
		}
	}
}

// Unit is one HHIR compilation unit (a lowered region).
type Unit struct {
	Func   *hhbc.Func
	Blocks []*Block
	Entry  *Block

	// ExtFrameSlots is the total frame-local slot count including
	// inline-callee frames (>= Func.NumLocals).
	ExtFrameSlots int

	// HasDtor: some class of the program declares __destruct, so releasing
	// a reference may run guest code (Instr.MayReenter). Build records it.
	HasDtor bool

	// Stats is what Build did about the region's preconditions, Opt what
	// Optimize did to the frame loads.
	Stats BuildStats
	Opt   OptStats

	// EndLocals and EndStack are, for a unit lowered from one region
	// block without inlining, what the builder knew of the frame's locals
	// (Bottom: nothing) and eval stack where the block ends. The block's
	// terminator emits every ReqBind of such a unit and nothing is
	// lowered after it, so each ReqBind leaves with this state. Nil for
	// any other unit. Both are the unit's memory, recycled with it.
	EndLocals, EndStack []types.Type

	nextTmp   int
	nextBlock int
	nextExit  int

	mem unitMem
}

// unitMem is the memory a unit recycles from one compile to the next
// (Build takes units from a pool, Release returns them). The unit's
// nodes die with the compile, so they are cut from per-unit slabs
// rather than allocated one by one: values, blocks, instructions, exit
// descriptors and inline contexts, operand and stack lists (refs), the
// blocks' instruction lists, block lists (region contexts' block maps,
// switch tables) and the builder's per-region tables. The tables are
// resized in place and regrown only when too small.
type unitMem struct {
	tmps       slab.Slab[SSATmp]
	blocks     slab.Slab[Block]
	instrs     slab.Slab[Instr]
	exits      slab.Slab[ExitDesc]
	inlines    slab.Slab[InlineCtx]
	refs       slab.Slab[*SSATmp]
	instrLists slab.Slab[*Instr]
	blockLists slab.Slab[*Block]
	typeLists  slab.Slab[types.Type]
	states     slab.Slab[uint8]
	ints       slab.Slab[int]

	// locals backs the builder's frame-slot types (EndLocals), preds
	// every block's Preds (RecomputePreds), predAt its counts, and marks
	// a walk's visited blocks (marks).
	locals    []types.Type
	preds     []*Block
	predsUsed int // how far into preds this compile wrote
	predAt    []int32
	marks     []bool

	// The passes' working state: DCE's used values, RCE's facts and
	// GVN's value table.
	used []bool
	rce  rce
	gvn  map[gvnKey]gvnVal
}

func (m *unitMem) reset() {
	m.tmps.Reset()
	m.blocks.Reset()
	m.instrs.Reset()
	m.exits.Reset()
	m.inlines.Reset()
	m.refs.Reset()
	m.instrLists.Reset()
	m.blockLists.Reset()
	m.typeLists.Reset()
	m.states.Reset()
	m.ints.Reset()
	clear(m.preds[:m.predsUsed]) // the previous compile's blocks
	m.predsUsed = 0
}

// NewUnit creates an empty unit for f.
func NewUnit(f *hhbc.Func) *Unit {
	return &Unit{Func: f}
}

// units holds released units. A pool rather than a free list the JIT
// owns: the collector empties it within two cycles, so recycled memory
// never adds to the live heap of an engine that stopped compiling.
var units = sync.Pool{New: func() any { return new(Unit) }}

// reset empties u for a compile of f, keeping its memory. Every block
// of the list was appended by NewBlock, so the compile wrote no further
// into it than its block count.
func (u *Unit) reset(f *hhbc.Func) {
	mem := u.mem
	mem.reset()
	blocks := u.Blocks[:min(u.nextBlock, cap(u.Blocks))]
	clear(blocks)
	*u = Unit{Func: f, Blocks: blocks[:0], mem: mem}
}

// Release hands u, built by Build, back for a later Build to reuse. No
// part of u — blocks, instructions, values, exit descriptors, EndLocals,
// EndStack — may be used afterwards; what outlives the compile is
// copied out of it first. A unit that is never released is simply
// garbage-collected.
func Release(u *Unit) {
	u.reset(nil)
	units.Put(u)
}

// NewTmp allocates an SSA value.
func (u *Unit) NewTmp(t types.Type) *SSATmp {
	v := u.mem.tmps.One()
	v.ID, v.Type = u.nextTmp, t
	u.nextTmp++
	return v
}

// NewBlock allocates a block.
func (u *Unit) NewBlock(bcStart int) *Block {
	b := u.mem.blocks.One()
	b.ID, b.BCStart = u.nextBlock, bcStart
	u.nextBlock++
	u.Blocks = append(u.Blocks, b)
	return b
}

// NumTmpIDs bounds the unit's value IDs: every SSATmp.ID is below it,
// so per-value state can live in a slice indexed by ID.
func (u *Unit) NumTmpIDs() int { return u.nextTmp }

// NumBlockIDs bounds the unit's block IDs the same way.
func (u *Unit) NumBlockIDs() int { return u.nextBlock }

// NumExitIDs bounds the unit's ExitDesc IDs the same way.
func (u *Unit) NumExitIDs() int { return u.nextExit }

// args returns a unit-owned copy of vs (nil for none), for an operand
// list: a capacity-capped window, so appending to it never writes into
// another list.
func (u *Unit) args(vs ...*SSATmp) []*SSATmp {
	w := u.mem.refs.Window(len(vs))
	copy(w, vs)
	return w
}

func (u *Unit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HHIR unit for %s\n", u.Func.FullName())
	for _, b := range u.Blocks {
		fmt.Fprintf(&sb, "B%d", b.ID)
		if len(b.Params) > 0 {
			sb.WriteString("(")
			for i, p := range b.Params {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(p.String())
			}
			sb.WriteString(")")
		}
		hint := ""
		if b.Hint == HintCold {
			hint = " [cold]"
		}
		fmt.Fprintf(&sb, ": preds=%v w=%d%s\n", blockIDs(b.Preds), b.Weight, hint)
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			fmt.Fprintf(&sb, "  (%02d) %s\n", in.Block.ID, in)
		}
	}
	return sb.String()
}

func blockIDs(bs []*Block) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = b.ID
	}
	return out
}

// RPO returns blocks in reverse postorder from the entry.
func (u *Unit) RPO() []*Block {
	w := reach{seen: u.marks(), post: make([]*Block, 0, len(u.Blocks))}
	w.walk(u.Entry)
	post := w.post
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// marks returns the unit's table of one cleared mark per block ID, for
// a walk to use until it returns.
func (u *Unit) marks() []bool {
	u.mem.marks = slab.Grow(u.mem.marks, u.nextBlock)
	clear(u.mem.marks)
	return u.mem.marks
}

// reach is a depth-first walk over successor edges: seen[b.ID] marks
// the blocks it reached, and post, when not nil, collects them in
// postorder.
type reach struct {
	seen []bool
	post []*Block
}

func (w *reach) walk(b *Block) {
	if w.seen[b.ID] {
		return
	}
	w.seen[b.ID] = true
	b.eachSucc(w.walk)
	if w.post != nil {
		w.post = append(w.post, b)
	}
}

// RecomputePreds rebuilds predecessor lists after CFG edits. Every
// list is a capacity-capped window of one backing array, which the unit
// keeps for the next call to overwrite, in the order the edges appear
// (blocks in unit order, each block's successors in instruction order):
// appending to one reallocates it and never overwrites a neighbour.
func (u *Unit) RecomputePreds() {
	count := slab.Grow(u.mem.predAt, u.nextBlock+1)
	clear(count)
	u.mem.predAt = count
	for _, b := range u.Blocks {
		b.Preds = nil
	}
	for _, b := range u.Blocks {
		b.eachSucc(func(s *Block) {
			count[s.ID+1]++
			s.Preds = nil // also a successor the unit no longer lists
		})
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1] // count[id] is now where block id's list starts
	}
	all := slab.Grow(u.mem.preds, int(count[len(count)-1]))
	u.mem.preds = all
	u.mem.predsUsed = max(u.mem.predsUsed, len(all))
	for _, b := range u.Blocks {
		b.eachSucc(func(s *Block) {
			at := count[s.ID]
			all[at] = b
			count[s.ID]++
			s.Preds = all[at-int32(len(s.Preds)) : at+1 : at+1]
		})
	}
}
