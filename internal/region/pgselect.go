package region

import (
	"cmp"
	"slices"

	"repro/internal/profile"
)

// TransCFG is the control-flow graph over a function's profiling
// translations (Section 5.2.1). Nodes are profiling blocks; a single
// bytecode address can have several nodes for different input-type
// combinations.
type TransCFG struct {
	Nodes   []*Block
	IDs     []profile.TransID
	Weights []uint64
	// Succ[i] lists node indices reachable from node i, with arc
	// weights (observed during profiling, estimated when missing), by
	// decreasing weight, then increasing target.
	Succ [][]WeightedArc
}

// WeightedArc is one TransCFG edge.
type WeightedArc struct {
	To     int
	Weight uint64
}

// BuildTransCFG assembles the CFG for one function from its profiling
// blocks and the counter store.
func BuildTransCFG(blocks []*Block, ids []profile.TransID, counters *profile.Counters) *TransCFG {
	n := len(blocks)
	g := &TransCFG{Nodes: blocks, IDs: ids, Weights: make([]uint64, n), Succ: make([][]WeightedArc, n)}
	idx := make(map[profile.TransID]int, n)
	for i, id := range ids {
		idx[id] = i
		g.Weights[i] = counters.Count(id)
	}
	// The nodes by start address: those at a static successor's pc are
	// one run of it.
	byStart := make([]int, n)
	for i := range byStart {
		byStart[i] = i
	}
	slices.SortFunc(byStart, func(a, b int) int { return cmp.Compare(blocks[a].Start, blocks[b].Start) })
	var flat []WeightedArc
	for i, b := range blocks {
		from := len(flat)
		// Observed arcs first.
		counters.EachArc(ids[i], func(to profile.TransID, w uint64) {
			if ti, ok := idx[to]; ok {
				flat = append(flat, WeightedArc{To: ti, Weight: w})
			}
		})
		observed := len(flat)
		// Static successors not observed get estimated (zero) weights so
		// the region former can still walk cold-but-possible paths.
		for _, spc := range b.Succs {
			at, _ := slices.BinarySearchFunc(byStart, spc, func(ni, pc int) int { return cmp.Compare(blocks[ni].Start, pc) })
			for ; at < n && blocks[byStart[at]].Start == spc; at++ {
				ti := byStart[at]
				if !slices.ContainsFunc(flat[from:observed], func(a WeightedArc) bool { return a.To == ti }) {
					flat = append(flat, WeightedArc{To: ti, Weight: 0})
				}
			}
		}
		// Total order (weight desc, then target index): the region
		// former's DFS follows this order, so ties must break
		// deterministically or region shape (and emitted code) varies.
		succ := flat[from:len(flat):len(flat)]
		slices.SortFunc(succ, func(a, b WeightedArc) int {
			if a.Weight != b.Weight {
				return cmp.Compare(b.Weight, a.Weight)
			}
			return cmp.Compare(a.To, b.To)
		})
		if len(succ) > 0 {
			g.Succ[i] = succ
		}
	}
	return g
}

// FormRegionsConfig tunes the profile-guided region former.
type FormRegionsConfig struct {
	// MaxBCInstrs caps the bytecode size of one region (large
	// functions split into multiple regions; Section 5.2.1).
	MaxBCInstrs int
	// MinBlockWeight prunes blocks colder than this fraction of the
	// region entry's weight. The paper found pruning unprofitable, so
	// the default is 0 (keep everything reachable).
	MinBlockWeight uint64
}

// DefaultFormConfig mirrors the paper's choices.
var DefaultFormConfig = FormRegionsConfig{MaxBCInstrs: 600}

// FormRegions builds optimized-mode regions for one function from its
// TransCFG: DFS growth from the lowest uncovered bytecode address,
// retranslation chains sorted by profile counts (Section 5.2.1).
func FormRegions(g *TransCFG, cfg FormRegionsConfig) []*Desc {
	if cfg.MaxBCInstrs == 0 {
		cfg.MaxBCInstrs = DefaultFormConfig.MaxBCInstrs
	}
	f := former{g: g, cfg: cfg, covered: make([]bool, len(g.Nodes)), regionOf: make([]int, len(g.Nodes))}
	for i := range f.regionOf {
		f.regionOf[i] = -1
	}
	var regions []*Desc
	for {
		start := -1
		// Start at the uncovered block with the lowest bytecode
		// address; for the first region this is the function entry.
		for i, b := range g.Nodes {
			if f.covered[i] {
				continue
			}
			if start == -1 || b.Start < g.Nodes[start].Start ||
				(b.Start == g.Nodes[start].Start && g.Weights[i] > g.Weights[start]) {
				start = i
			}
		}
		if start == -1 {
			return regions
		}
		regions = append(regions, f.form(start))
	}
}

// former is FormRegions' state: the nodes regions covered so far, and
// for the region being formed its nodes in DFS order, where it put
// each (regionOf[n], -1: not in it) and its bytecode size.
type former struct {
	g        *TransCFG
	cfg      FormRegionsConfig
	covered  []bool
	regionOf []int
	nodes    []int
	size     int
}

// dfs adds node n and what it reaches to the region, within its size.
func (f *former) dfs(n int) {
	g := f.g
	if f.covered[n] || f.size+g.Nodes[n].NumInstrs > f.cfg.MaxBCInstrs {
		return
	}
	if g.Weights[n] < f.cfg.MinBlockWeight {
		return
	}
	f.covered[n] = true
	f.regionOf[n] = len(f.nodes)
	f.nodes = append(f.nodes, n)
	f.size += g.Nodes[n].NumInstrs
	for _, arc := range g.Succ[n] {
		f.dfs(arc.To)
	}
}

// form grows one region from start.
func (f *former) form(start int) *Desc {
	g := f.g
	f.nodes, f.size = f.nodes[:0], 0
	f.dfs(start)
	nodes := f.nodes
	desc := &Desc{Blocks: make([]*Block, len(nodes)), Weight: make([]uint64, len(nodes)),
		Arcs: make([][]int, len(nodes))}
	// Region-internal arcs, each block's a window of one array.
	narcs := 0
	for ri, n := range nodes {
		desc.Blocks[ri], desc.Weight[ri] = g.Nodes[n], g.Weights[n]
		for _, arc := range g.Succ[n] {
			if f.regionOf[arc.To] >= 0 {
				narcs++
			}
		}
	}
	flat := make([]int, 0, narcs)
	for ri, n := range nodes {
		from := len(flat)
		for _, arc := range g.Succ[n] {
			if ti := f.regionOf[arc.To]; ti >= 0 {
				flat = append(flat, ti)
			}
		}
		slices.Sort(flat[from:])
		if len(flat) > from {
			desc.Arcs[ri] = flat[from:len(flat):len(flat)]
		}
	}
	for _, n := range nodes {
		f.regionOf[n] = -1
	}

	chainRetranslations(desc)
	return desc
}

// chainRetranslations groups region blocks that start at the same
// bytecode address and orders each chain by decreasing profile count,
// so the hottest type combination is guard-checked first (the
// B7,B6,B5,B4 example in Section 5.2.1). The chains are in increasing
// address order, each a capacity-capped window of one array of block
// indices sorted by (start, -weight, index).
func chainRetranslations(d *Desc) {
	order := make([]int, len(d.Blocks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(d.Blocks[a].Start, d.Blocks[b].Start); c != 0 {
			return c
		}
		if c := cmp.Compare(d.Weight[b], d.Weight[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	n := 0
	for k, i := range order {
		if k == 0 || d.Blocks[i].Start != d.Blocks[order[k-1]].Start {
			n++
		}
	}
	d.Chains = make([][]int, 0, n)
	for from := 0; from < len(order); {
		to := from + 1
		for to < len(order) && d.Blocks[order[to]].Start == d.Blocks[order[from]].Start {
			to++
		}
		d.Chains = append(d.Chains, order[from:to:to])
		from = to
	}
}
