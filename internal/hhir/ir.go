// Package hhir implements the HipHop Intermediate Representation: a
// typed, SSA-form IR lowered from bytecode regions. Most of the JIT's
// optimizations run here (Section 5.3): simplification, constant
// folding, DCE, GVN, load elimination, reference-counting elimination,
// partial inlining, and method-dispatch optimization.
package hhir

import (
	"fmt"
	"strings"

	"repro/internal/hhbc"
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

// Succs lists successor blocks, including mid-block guard targets
// (guards may branch to the next retranslation in a chain without
// ending the block).
func (b *Block) Succs() []*Block {
	var out []*Block
	for _, in := range b.Instrs {
		if in.dead {
			continue
		}
		if in.Taken != nil {
			out = append(out, in.Taken)
		}
		if in.Next != nil {
			out = append(out, in.Next)
		}
		out = append(out, in.Table...)
	}
	return out
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

	nextTmp   int
	nextBlock int
}

// NewUnit creates an empty unit for f.
func NewUnit(f *hhbc.Func) *Unit {
	return &Unit{Func: f}
}

// NewTmp allocates an SSA value.
func (u *Unit) NewTmp(t types.Type) *SSATmp {
	u.nextTmp++
	return &SSATmp{ID: u.nextTmp - 1, Type: t}
}

// NewBlock allocates a block.
func (u *Unit) NewBlock(bcStart int) *Block {
	b := &Block{ID: u.nextBlock, BCStart: bcStart}
	u.nextBlock++
	u.Blocks = append(u.Blocks, b)
	return b
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
	seen := map[*Block]bool{}
	var post []*Block
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			walk(s)
		}
		post = append(post, b)
	}
	walk(u.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// RecomputePreds rebuilds predecessor lists after CFG edits.
func (u *Unit) RecomputePreds() {
	for _, b := range u.Blocks {
		b.Preds = nil
	}
	for _, b := range u.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}
