package vasm

import "sort"

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

// Layout orders u.Blocks (filling u.Layout) using Pettis-Hansen
// bottom-up chain merging on the weighted CFG, then applies hot/cold
// splitting and jump optimization (fallthrough conversion).
func Layout(u *Unit, cfg LayoutConfig) {
	n := len(u.Blocks)
	if n == 0 {
		return
	}

	type edge struct {
		from, to int
		w        uint64
	}
	var edges []edge
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
				edges = append(edges, edge{i, s, w})
			})
		}
	}

	// Pettis-Hansen bottom-up: merge chains over edges by descending
	// weight.
	chainOf := make([]int, n)
	chains := make([][]int, n)
	for i := 0; i < n; i++ {
		chainOf[i] = i
		chains[i] = []int{i}
	}
	if cfg.ProfileGuided {
		sort.SliceStable(edges, func(a, b int) bool { return edges[a].w > edges[b].w })
		for _, e := range edges {
			if e.to == 0 {
				continue // the entry block must stay a chain head
			}
			cf, ct := chainOf[e.from], chainOf[e.to]
			if cf == ct {
				continue
			}
			// Merge only when from is a chain tail and to is a head.
			if chains[cf][len(chains[cf])-1] != e.from || chains[ct][0] != e.to {
				continue
			}
			chains[cf] = append(chains[cf], chains[ct]...)
			for _, b := range chains[ct] {
				chainOf[b] = cf
			}
			chains[ct] = nil
		}
	}

	// Order chains: entry's chain first, then by descending weight.
	type chainInfo struct {
		id     int
		weight uint64
		blocks []int
	}
	var infos []chainInfo
	for id, blocks := range chains {
		if len(blocks) == 0 {
			continue
		}
		var w uint64
		for _, b := range blocks {
			if u.Blocks[b].Weight > w {
				w = u.Blocks[b].Weight
			}
		}
		infos = append(infos, chainInfo{id, w, blocks})
	}
	entryChain := chainOf[0]
	sort.SliceStable(infos, func(a, b int) bool {
		if (infos[a].id == entryChain) != (infos[b].id == entryChain) {
			return infos[a].id == entryChain
		}
		if cfg.ProfileGuided && infos[a].weight != infos[b].weight {
			return infos[a].weight > infos[b].weight
		}
		return infos[a].id < infos[b].id
	})

	var hot, cold, frozen []int
	for _, ci := range infos {
		for _, b := range ci.blocks {
			switch {
			case u.Blocks[b].Hint == HintStub:
				frozen = append(frozen, b)
			case cfg.SplitCold && u.Blocks[b].Hint == HintCold:
				cold = append(cold, b)
			default:
				hot = append(hot, b)
			}
		}
	}
	u.Layout = append(append(hot, cold...), frozen...)

	optimizeJumps(u)
}

// optimizeJumps marks Jmp instructions whose target immediately
// follows in the layout as fallthroughs (Nop'd), and flips Jcc
// targets so the fallthrough successor is adjacent when possible.
func optimizeJumps(u *Unit) {
	posOf := make(map[int]int, len(u.Layout))
	for pos, b := range u.Layout {
		posOf[b] = pos
	}
	for pos, bi := range u.Layout {
		b := u.Blocks[bi]
		if len(b.Instrs) == 0 {
			continue
		}
		last := &b.Instrs[len(b.Instrs)-1]
		switch last.Op {
		case Jmp:
			if p, ok := posOf[last.Target1]; ok && p == pos+1 {
				// Fallthrough: the jump disappears from the encoding.
				last.I64 = 1 // marker: zero-size fallthrough
			}
		case Jcc:
			if p, ok := posOf[last.Target2]; ok && p == pos+1 {
				break // already falls through on the likely path
			}
			if p, ok := posOf[last.Target1]; ok && p == pos+1 {
				// Invert the condition so Target2 becomes the jump.
				last.Target1, last.Target2 = last.Target2, last.Target1
				last.I64 ^= jccInverted
			}
		}
	}
}

// jccInverted flags a Jcc whose condition sense is flipped.
const jccInverted = int64(1) << 8
