package region

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hhbc"
	"repro/internal/profile"
	"repro/internal/types"
)

// LocKind distinguishes guard locations.
type LocKind uint8

const (
	LocLocal LocKind = iota // a frame local, Slot = local index
	LocStack                // an entry eval-stack slot, Slot = depth from bottom
)

// Loc is a guardable VM input location.
type Loc struct {
	Kind LocKind
	Slot int
}

func (l Loc) String() string {
	if l.Kind == LocLocal {
		return fmt.Sprintf("L:%d", l.Slot)
	}
	return fmt.Sprintf("S:%d", l.Slot)
}

// Guard is one precondition: location, the type the generated code
// assumes, and how much of that knowledge the code actually needs.
type Guard struct {
	Loc        Loc
	Type       types.Type
	Constraint TypeConstraint
}

// Block is one bytecode-level basic-block region: the unit of
// profiling translation and the node of the TransCFG.
type Block struct {
	Func      *hhbc.Func
	Start     int // first bytecode pc
	NumInstrs int
	// EntryStackDepth is the evaluation-stack depth at entry.
	EntryStackDepth int
	// EntryStackTypes are the known types of entry stack slots
	// (len == EntryStackDepth); guarded ones appear in Preconds.
	EntryStackTypes []types.Type

	// Preconds are the type guards at the top of the translation.
	Preconds []Guard
	// PostLocals are local types known at block exit, used by the
	// profile-guided selector to match successor preconditions.
	PostLocals map[int]types.Type
	// Succs are the possible successor pcs (bytecode level).
	Succs []int

	// ProfCounter is this block's unique execution counter in
	// profiling mode (-1 otherwise).
	ProfCounter profile.TransID
}

// End returns the pc one past the last instruction.
func (b *Block) End() int { return b.Start + b.NumInstrs }

// GuardFor returns the precondition for loc, if any.
func (b *Block) GuardFor(loc Loc) (Guard, bool) {
	for _, g := range b.Preconds {
		if g.Loc == loc {
			return g, true
		}
	}
	return Guard{}, false
}

// String renders the block like the paper's Figure 4 entries.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "B[%s @%d..%d]", b.Func.FullName(), b.Start, b.End())
	gs := append([]Guard(nil), b.Preconds...)
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Loc.Kind != gs[j].Loc.Kind {
			return gs[i].Loc.Kind < gs[j].Loc.Kind
		}
		return gs[i].Loc.Slot < gs[j].Loc.Slot
	})
	for _, g := range gs {
		fmt.Fprintf(&sb, " %s:%s(%s)", g.Loc, g.Type, g.Constraint)
	}
	return sb.String()
}

// Desc is a RegionDesc: the compilation unit handed to the JIT
// optimizer. It is a CFG of blocks with weighted arcs.
type Desc struct {
	Blocks []*Block
	// Arcs[i] lists indices of successor blocks of Blocks[i] within
	// the region.
	Arcs map[int][]int
	// Weight[i] is the profiled execution count of Blocks[i].
	Weight map[int]uint64
	// Chain groups region-block indices that retranslate the same
	// bytecode address, in guard-check order.
	Chains [][]int
}

// NewDesc wraps a single block (live and profiling translations).
func NewDesc(b *Block) *Desc {
	return &Desc{
		Blocks: []*Block{b},
		Arcs:   map[int][]int{},
		Weight: map[int]uint64{0: 1},
	}
}

// Entry returns the region's entry block.
func (d *Desc) Entry() *Block { return d.Blocks[0] }

// NumInstrs totals the bytecode instructions covered.
func (d *Desc) NumInstrs() int {
	n := 0
	for _, b := range d.Blocks {
		n += b.NumInstrs
	}
	return n
}

// LoweringOrder returns the block indices in reverse post-order from
// the entry over the edges a lowering creates: every arc, taken to the
// head of the target's retranslation chain as well as to the target
// (a jump enters a chain at its head unless a later member's guards
// are already proven), and the guard-failure fall-through from each
// chain member to the next. Every forward edge into a block then
// precedes it; only loop back-edges arrive late. Blocks the walk does
// not reach follow in index order.
func (d *Desc) LoweringOrder() []int {
	n := len(d.Blocks)
	head := make([]int, n)
	next := make([]int, n)
	for i := range next {
		head[i], next[i] = i, -1
	}
	for _, chain := range d.Chains {
		for k, ci := range chain {
			head[ci] = chain[0]
			if k+1 < len(chain) {
				next[ci] = chain[k+1]
			}
		}
	}
	seen := make([]bool, n)
	order := make([]int, 0, n)
	var walk func(i int)
	walk = func(i int) {
		if seen[i] {
			return
		}
		seen[i] = true
		if next[i] >= 0 {
			walk(next[i])
		}
		for _, j := range d.Arcs[i] {
			walk(head[j])
			walk(j)
		}
		order = append(order, i) // post-order
	}
	for root := 0; root < n; root++ {
		from := len(order)
		walk(root)
		for l, r := from, len(order)-1; l < r; l, r = l+1, r-1 {
			order[l], order[r] = order[r], order[l]
		}
	}
	return order
}

func (d *Desc) String() string {
	var sb strings.Builder
	for i, b := range d.Blocks {
		fmt.Fprintf(&sb, "%d: %s w=%d ->%v\n", i, b, d.Weight[i], d.Arcs[i])
	}
	return sb.String()
}
