package hhir

import (
	"fmt"

	"repro/internal/hhbc"
	"repro/internal/types"
)

// Region-wide type flow (DESIGN.md §6, "Type flow across region
// blocks"). The builder's own frame state — localTypes and the types
// of the stack values it passes — rides every edge it creates into a
// region block, and a block is lowered under the meet of the edges
// seen so far instead of under nothing. Blocks are lowered in reverse
// post-order, so only loop back-edges arrive after their target; those
// are checked against the facts the target was lowered under, and a
// broken fact throws the attempt away (Build) rather than being
// trusted.

// Per-block flow states (regionCtx.state).
const (
	flowNoEdge  uint8 = iota // no edge seen: unreachable so far, not lowered
	flowMerged               // in/Params hold the meet of the edges so far
	flowLowered              // in/Params are what the block was lowered under
)

// maxFlowRebuilds bounds the attempts that drop broken facts one by
// one; the attempt after that runs with the flow off, which cannot
// break anything.
const maxFlowRebuilds = 3

// flowFact names one assumption: in the region context lowering fn at
// inline depth depth, block assumed something of the context's slot-th
// local or, for slot = -1-d, of entry stack slot d. The key survives
// a rebuild (region contexts and their descriptors do not).
type flowFact struct {
	depth int
	fn    *hhbc.Func
	block int
	slot  int
}

// BuildStats counts what the builder did about region-block
// preconditions (diagnostics: the jit.Debug dump, `hhvm -stats`).
type BuildStats struct {
	// Guards is the number of CheckTypes emitted, GuardsProven
	// the number left out because the types flowing into the block
	// already proved them.
	Guards, GuardsProven int
	// ParamsNarrowed counts block parameters typed below InitCell from
	// the values their predecessors pass.
	ParamsNarrowed int
	// Rebuilds counts attempts discarded because a late edge broke an
	// assumption.
	Rebuilds int
}

func (s BuildStats) String() string {
	return fmt.Sprintf("%d emitted, %d proven by type flow, %d params narrowed, %d rebuilds",
		s.Guards, s.GuardsProven, s.ParamsNarrowed, s.Rebuilds)
}

// Add accumulates o into s.
func (s *BuildStats) Add(o BuildStats) {
	s.Guards += o.Guards
	s.GuardsProven += o.GuardsProven
	s.ParamsNarrowed += o.ParamsNarrowed
	s.Rebuilds += o.Rebuilds
}

// meetType joins what two edges know of one slot; Bottom (no fact)
// absorbs, and a union that admits everything is no fact either.
func meetType(a, b types.Type) types.Type {
	if a.IsBottom() || b.IsBottom() {
		return types.TBottom
	}
	u := a.Union(b)
	if types.TCell.SubtypeOf(u) {
		return types.TBottom
	}
	return u
}

// facts is block ri's row of rc.in.
func (rc *regionCtx) facts(ri int) []types.Type {
	return rc.in[ri*rc.nslots : (ri+1)*rc.nslots]
}

// flowEdge accounts for an edge the builder is about to emit from the
// current point into block ri of the current region context, passing
// args. Before ri is lowered the edge's state is merged into what ri
// will assume; afterwards it must imply what ri did assume. The
// top-level entry block assumes nothing — the dispatcher and chained
// jumps enter it too — so its edges carry nothing.
func (b *builder) flowEdge(ri int, args []*SSATmp) {
	rc := &b.rc
	if ri == 0 && len(b.inlines) == 0 {
		return
	}
	if b.flowOff {
		if rc.state[ri] == flowNoEdge {
			rc.state[ri] = flowMerged // reached, and nothing more
		}
		return
	}
	in := rc.facts(ri)
	cur := b.localTypes[rc.base : rc.base+rc.nslots]
	params := rc.hblocks[ri].Params
	switch rc.state[ri] {
	case flowNoEdge:
		copy(in, cur)
		for d, p := range params {
			p.Type = args[d].Type
		}
		rc.state[ri] = flowMerged
	case flowMerged:
		for s, t := range cur {
			in[s] = meetType(in[s], t)
		}
		for d, p := range params {
			p.Type = p.Type.Union(args[d].Type)
		}
	case flowLowered:
		for s, fact := range in {
			if !fact.IsBottom() && (cur[s].IsBottom() || !cur[s].SubtypeOf(fact)) {
				b.violate(ri, s)
			}
		}
		for d, p := range params {
			if !args[d].Type.SubtypeOf(p.Type) {
				b.violate(ri, -1-d)
			}
		}
	}
}

func (b *builder) violate(ri, slot int) {
	f := flowFact{len(b.inlines), b.curFn(), ri, slot}
	for _, g := range b.violated {
		if g == f {
			return
		}
	}
	b.violated = append(b.violated, f)
}

// startBlock makes block ri of the current region context the lowering
// point, under the facts merged into it so far minus those an earlier
// attempt saw broken.
func (b *builder) startBlock(ri int) {
	rc := &b.rc
	hb := rc.hblocks[ri]
	in := rc.facts(ri)
	for _, f := range b.denied {
		switch {
		case f.depth != len(b.inlines) || f.fn != b.curFn() || f.block != ri:
		case f.slot >= 0:
			in[f.slot] = types.TBottom
		case -1-f.slot < len(hb.Params):
			hb.Params[-1-f.slot].Type = types.TBottom
		}
	}
	for _, p := range hb.Params {
		b.settleParam(p)
	}
	rc.state[ri] = flowLowered
	copy(b.localTypes[rc.base:rc.base+rc.nslots], in)
	b.cur = hb
	b.stack = append([]*SSATmp(nil), hb.Params...)
}

// settleParam fixes the type of a block parameter once every edge that
// may widen it has been merged: the union of what was passed, InitCell
// when nothing was (or the fact was denied).
func (b *builder) settleParam(p *SSATmp) {
	if p.Type.IsBottom() {
		p.Type = types.TInitCell
	} else if p.Type != types.TInitCell {
		b.stats.ParamsNarrowed++
	}
}
