package vasm

import (
	"cmp"
	"slices"

	"repro/internal/slab"
)

// LayoutConfig controls code layout.
type LayoutConfig struct {
	// ProfileGuided uses block weights (Pettis-Hansen chain merging
	// and weight-ordered placement). When false, layout follows the
	// static block order with hint-based splitting only — the
	// fallback the paper's Figure 10 "PGO layout" ablation measures.
	ProfileGuided bool
	// SplitCold moves cold blocks after hot ones and stubs to the
	// frozen tail.
	SplitCold bool
}

// DefaultLayout matches production behaviour.
var DefaultLayout = LayoutConfig{ProfileGuided: true, SplitCold: true}

// layoutEdge is one CFG edge Layout weighs.
type layoutEdge struct {
	from, to int
	w        uint64
}

// chainInfo is one merged chain Layout places.
type chainInfo struct {
	id     int
	weight uint64
	blocks []int
}

// chainState is Layout's working state. It lives in the unit's memory,
// which keeps its tables for the next compile.
type chainState struct {
	edges  []layoutEdge
	ints   []int
	flat   []int
	chains [][]int
	infos  []chainInfo
}

// Layout orders u.Blocks (filling u.Layout) using Pettis-Hansen
// bottom-up chain merging on the weighted CFG, then applies hot/cold
// splitting and jump optimization (fallthrough conversion).
func Layout(u *Unit, cfg LayoutConfig) {
	n := len(u.Blocks)
	if n == 0 {
		return
	}
	st := &u.mem.chains

	nedges := 0
	for _, b := range u.Blocks {
		for ii := range b.Instrs {
			b.Instrs[ii].ForEachTarget(u.Tables, func(int) { nedges++ })
		}
	}
	edges := slab.Grow(st.edges, nedges)[:0]
	for i, b := range u.Blocks {
		for ii := range b.Instrs {
			b.Instrs[ii].ForEachTarget(u.Tables, func(s int) {
				if s < 0 || s >= n {
					return
				}
				w := b.Weight
				if u.Blocks[s].Weight < w {
					w = u.Blocks[s].Weight
				}
				edges = append(edges, layoutEdge{i, s, w})
			})
		}
	}
	st.edges = edges

	// Pettis-Hansen bottom-up: merge chains over edges by descending
	// weight. A chain is a linked list of blocks (next) named by the
	// block it started from: chainOf[b] names b's chain, and first and
	// last end chain c (first[c] = -1 once c merged into another).
	st.ints = slab.Grow(st.ints, 4*n)
	ints := st.ints
	chainOf, next, first, last := ints[:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n], ints[3*n:]
	for i := 0; i < n; i++ {
		chainOf[i], next[i], first[i], last[i] = i, -1, i, i
	}
	if cfg.ProfileGuided {
		slices.SortStableFunc(edges, func(a, b layoutEdge) int { return cmp.Compare(b.w, a.w) })
		for _, e := range edges {
			if e.to == 0 {
				continue // the entry block must stay a chain head
			}
			cf, ct := chainOf[e.from], chainOf[e.to]
			if cf == ct {
				continue
			}
			// Merge only when from is a chain tail and to is a head.
			if last[cf] != e.from || first[ct] != e.to {
				continue
			}
			next[last[cf]] = first[ct]
			last[cf] = last[ct]
			for b := first[ct]; b >= 0; b = next[b] {
				chainOf[b] = cf
			}
			first[ct] = -1
		}
	}

	// Order chains: entry's chain first, then by descending weight.
	chains := st.windows(first, next)
	infos := slab.Grow(st.infos, len(chains))[:0]
	for _, blocks := range chains {
		var w uint64
		for _, b := range blocks {
			if u.Blocks[b].Weight > w {
				w = u.Blocks[b].Weight
			}
		}
		infos = append(infos, chainInfo{blocks[0], w, blocks})
	}
	st.infos = infos
	entryChain := chainOf[0]
	slices.SortStableFunc(infos, func(a, b chainInfo) int {
		if (a.id == entryChain) != (b.id == entryChain) {
			if a.id == entryChain {
				return -1
			}
			return 1
		}
		if cfg.ProfileGuided && a.weight != b.weight {
			return cmp.Compare(b.weight, a.weight)
		}
		return cmp.Compare(a.id, b.id)
	})

	// Hot blocks, then cold ones, then the stubs in the frozen tail.
	class := func(b int) int {
		switch {
		case u.Blocks[b].Hint == HintStub:
			return 2
		case cfg.SplitCold && u.Blocks[b].Hint == HintCold:
			return 1
		}
		return 0
	}
	u.Layout = slab.Grow(u.mem.layout, n)[:0]
	for c := 0; c < 3; c++ {
		for _, ci := range infos {
			for _, b := range ci.blocks {
				if class(b) == c {
					u.Layout = append(u.Layout, b)
				}
			}
		}
	}

	optimizeJumps(u)
}

// windows lists the chains that start at each b with first[b] >= 0, in
// order of b, following next from there. Every chain is a
// capacity-capped window of one backing array, so appending to one
// reallocates it instead of overwriting the next; the array and the
// list are s's, overwritten by the next call.
func (s *chainState) windows(first, next []int) [][]int {
	flat := slab.Grow(s.flat, len(next))[:0]
	nchains := 0
	for _, h := range first {
		if h >= 0 {
			nchains++
		}
	}
	chains := slab.Grow(s.chains, nchains)[:0]
	for _, h := range first {
		if h < 0 {
			continue
		}
		from := len(flat)
		for b := h; b >= 0; b = next[b] {
			flat = append(flat, b)
		}
		chains = append(chains, flat[from:len(flat):len(flat)])
	}
	s.flat, s.chains = flat, chains
	return chains
}

// optimizeJumps marks Jmp instructions whose target immediately
// follows in the layout as fallthroughs (Nop'd), and flips Jcc
// targets so the fallthrough successor is adjacent when possible.
func optimizeJumps(u *Unit) {
	for pos, bi := range u.Layout {
		b := u.Blocks[bi]
		if len(b.Instrs) == 0 {
			continue
		}
		// Layout is a permutation of the blocks: a block directly
		// follows this one exactly when it is the next entry.
		follows := func(target int) bool { return pos+1 < len(u.Layout) && u.Layout[pos+1] == target }
		last := &b.Instrs[len(b.Instrs)-1]
		switch last.Op {
		case Jmp:
			if follows(last.Target1) {
				// Fallthrough: the jump disappears from the encoding.
				last.I64 = 1 // marker: zero-size fallthrough
			}
		case Jcc:
			if follows(last.Target2) {
				break // already falls through on the likely path
			}
			if follows(last.Target1) {
				// Invert the condition so Target2 becomes the jump.
				last.Target1, last.Target2 = last.Target2, last.Target1
				last.I64 ^= jccInverted
			}
		}
	}
}

// jccInverted flags a Jcc whose condition sense is flipped.
const jccInverted = int64(1) << 8
