package region

import (
	"cmp"
	"slices"

	"repro/internal/profile"
	"repro/internal/types"
)

// RelaxConfig tunes guard relaxation (Section 5.2.2).
type RelaxConfig struct {
	// Enabled turns the pass on (the Figure 10 ablation disables it).
	Enabled bool
	// GenericThreshold: when the dominant observed type covers less
	// than this fraction of executions, relax all the way to Generic
	// rather than keeping per-type translations ("if the input type
	// was reference counted 80% of the time, relax to generic").
	GenericThreshold float64
}

// DefaultRelaxConfig matches the paper's behaviour.
var DefaultRelaxConfig = RelaxConfig{Enabled: true, GenericThreshold: 0.85}

// Relax applies guard relaxation to an optimized region: for every
// precondition, the guard is widened as far as its type constraint
// allows given the profiled type distribution at that bytecode
// address; retranslation chains are then re-sorted and blocks
// subsumed by relaxed predecessors dropped.
func Relax(d *Desc, g *TransCFG, counters *profile.Counters, cfg RelaxConfig) {
	if !cfg.Enabled {
		return
	}
	// Type distributions: for each (start pc, loc), the observed
	// (type, weight) pairs across all profiling translations of the
	// function, as runs of one list sorted by (pc, loc).
	n := 0
	for _, b := range g.Nodes {
		n += len(b.Preconds)
	}
	dist := make([]typeWeight, 0, n)
	for i, b := range g.Nodes {
		for _, gd := range b.Preconds {
			dist = append(dist, typeWeight{b.Start, gd.Loc, gd.Type, g.Weights[i]})
		}
	}
	slices.SortFunc(dist, func(a, b typeWeight) int { return a.compare(b.pc, b.loc) })

	for _, b := range d.Blocks {
		for gi := range b.Preconds {
			gd := &b.Preconds[gi]
			if gd.Constraint >= ConSpecific {
				// The code needs the full type; relaxing would force
				// generic paths. Check profile dominance instead: if
				// no single type dominates, keep specific guards (the
				// chain handles polymorphism).
				continue
			}
			relaxed := gd.Constraint.RelaxedType(gd.Type)
			at, _ := slices.BinarySearchFunc(dist, b.Start, func(tw typeWeight, pc int) int { return tw.compare(pc, gd.Loc) })
			var total, under uint64
			for ; at < len(dist) && dist[at].compare(b.Start, gd.Loc) == 0; at++ {
				total += dist[at].w
				if dist[at].t.SubtypeOf(relaxed) {
					under += dist[at].w
				}
			}
			if total > 0 && float64(under)/float64(total) < cfg.GenericThreshold {
				// Observed types straddle the relaxed check most
				// of the time: drop the guard entirely (Generic).
				relaxed = types.TCell
			}
			gd.Type = relaxed
		}
	}

	dedupeChains(d)
}

// typeWeight is one profiled guard: at bytecode address pc, location
// loc held type t in w executions.
type typeWeight struct {
	pc  int
	loc Loc
	t   types.Type
	w   uint64
}

// compare orders tw by (pc, loc) against the key (pc, loc).
func (tw typeWeight) compare(pc int, loc Loc) int {
	if c := cmp.Compare(tw.pc, pc); c != 0 {
		return c
	}
	if c := cmp.Compare(tw.loc.Kind, loc.Kind); c != 0 {
		return c
	}
	return cmp.Compare(tw.loc.Slot, loc.Slot)
}

// dedupeChains removes region blocks whose (relaxed) preconditions
// are subsumed by an earlier block in the same retranslation chain —
// those translations can never be reached.
func dedupeChains(d *Desc) {
	var dead []bool
	for _, chain := range d.Chains {
		for i := 0; i < len(chain); i++ {
			if dead != nil && dead[chain[i]] {
				continue
			}
			for j := i + 1; j < len(chain); j++ {
				if dead != nil && dead[chain[j]] {
					continue
				}
				if subsumes(d.Blocks[chain[i]], d.Blocks[chain[j]]) {
					if dead == nil {
						dead = make([]bool, len(d.Blocks))
					}
					dead[chain[j]] = true
				}
			}
		}
	}
	if dead == nil {
		return
	}
	// Rebuild the region without dead blocks.
	remap := make([]int, len(d.Blocks))
	var blocks []*Block
	var weight []uint64
	for i, b := range d.Blocks {
		remap[i] = -1
		if !dead[i] {
			remap[i] = len(blocks)
			blocks = append(blocks, b)
			weight = append(weight, d.Weight[i])
		}
	}
	arcs := make([][]int, len(blocks))
	for i, succs := range d.Arcs {
		ni := remap[i]
		if ni < 0 {
			continue
		}
		for _, sj := range succs {
			if nj := remap[sj]; nj >= 0 {
				arcs[ni] = append(arcs[ni], nj)
			}
		}
	}
	d.Blocks, d.Arcs, d.Weight = blocks, arcs, weight
	chainRetranslations(d)
}

// subsumes reports whether every input accepted by b's guards is also
// accepted by a's (same bytecode address assumed).
func subsumes(a, b *Block) bool {
	for _, gb := range b.Preconds {
		ga, ok := a.GuardFor(gb.Loc)
		if !ok {
			continue // a doesn't check this loc: accepts everything
		}
		if !gb.Type.SubtypeOf(ga.Type) {
			return false
		}
	}
	// a must not check locations b leaves unchecked with a narrower
	// type than TCell.
	for _, ga := range a.Preconds {
		if _, ok := b.GuardFor(ga.Loc); !ok {
			if !types.TCell.SubtypeOf(ga.Type) {
				return false
			}
		}
	}
	return true
}
