package hhir

import (
	"repro/internal/slab"
	"repro/internal/types"
)

// RCE is the reference-counting elimination pass (Section 5.3.2): it
// sinks IncRef instructions down the instruction stream as long as
// the (temporarily) smaller reference count cannot affect any
// intervening instruction, and eliminates IncRef/DecRef pairs that
// become adjacent. Only IncRefs move — DecRefs stay put because they
// can run destructors.
//
// Lower bounds on count(t) are computed per block from local facts:
// a value loaded from a frame local has count >= 1 while the local
// still holds it; helper results arrive owned (>= 1); IncRef/DecRef
// adjust the bound; calls invalidate bounds for values they consume.
func RCE(u *Unit) {
	r := &u.mem.rce
	r.facts = slab.Grow(r.facts, u.nextTmp)
	clear(r.facts)
	r.gen = 0
	for _, b := range u.Blocks {
		r.block(b)
	}
	// Drop the values: the next compile's gens start over.
	clear(r.holds)
	clear(r.pending[:cap(r.pending)])
	commitDead(u)
}

// rce is the pass's state, kept in the unit's memory for its next
// compile. Facts are per block: an entry whose gen is not the current
// block's reads as zero and is reset when written, so moving to the
// next block clears only what a block touched.
type rce struct {
	facts []rceFacts // by SSATmp.ID
	gen   int32
	// holds[slot] is the value frame slot holds (for LdLoc facts), when
	// its gen is the current block's.
	holds   []rceHold
	pending []pendingInc
}

type rceHold struct {
	gen int32
	v   *SSATmp
}

// hold returns the value the current block knows slot to hold, nil if
// none.
func (r *rce) hold(slot int64) *SSATmp {
	if slot >= 0 && slot < int64(len(r.holds)) && r.holds[slot].gen == r.gen {
		return r.holds[slot].v
	}
	return nil
}

// setHold records that slot holds v in the current block.
func (r *rce) setHold(slot int64, v *SSATmp) {
	if slot < 0 {
		return
	}
	if slot >= int64(len(r.holds)) {
		r.holds = append(r.holds, make([]rceHold, int(slot)+1-len(r.holds))...)
	}
	r.holds[slot] = rceHold{r.gen, v}
}

type rceFacts struct {
	gen int32
	// lb is the lower bound of the count (excluding any pending IncRef).
	lb int32
	// stored marks a value written into a local (its count is
	// frame-visible; side exits then observe it).
	stored bool
}

// at returns t's facts in the current block, for writing.
func (r *rce) at(t *SSATmp) *rceFacts {
	f := &r.facts[t.ID]
	if f.gen != r.gen {
		*f = rceFacts{gen: r.gen}
	}
	return f
}

// lb returns the lower bound of t's count in the current block.
func (r *rce) lb(t *SSATmp) int32 {
	if f := &r.facts[t.ID]; f.gen == r.gen {
		return f.lb
	}
	return 0
}

// stored reports whether the current block stored t into a local.
func (r *rce) stored(t *SSATmp) bool {
	f := &r.facts[t.ID]
	return f.gen == r.gen && f.stored
}

type pendingInc struct {
	in  *Instr
	val *SSATmp
}

func (r *rce) block(b *Block) {
	r.gen++

	pending := r.pending[:0]

	for _, in := range b.Instrs {
		if in.dead {
			continue
		}

		// Try to eliminate: DecRef t with a pending IncRef t.
		if in.Op == DecRef {
			t := in.Args[0]
			for pi := len(pending) - 1; pi >= 0; pi-- {
				if pending[pi].val == t {
					pending[pi].in.dead = true
					in.dead = true
					pending = append(pending[:pi], pending[pi+1:]...)
					break
				}
			}
			if in.dead {
				continue
			}
		}

		// New IncRef: becomes pending (candidate for sinking). Its
		// count contribution is NOT added to the lower bound — lb
		// tracks the sunk-world count, where the IncRef has not yet
		// executed.
		if in.Op == IncRef {
			t := in.Args[0]
			if t.Type.MaybeCounted() {
				pending = append(pending, pendingInc{in: in, val: t})
			} else {
				r.at(t).lb++
			}
			continue
		}

		// Can every pending IncRef cross this instruction? Blocked
		// ones stay at their original position (a pair only dies once the
		// IncRef has sunk all the way to its DecRef), so their count
		// contribution becomes real again.
		if len(pending) > 0 {
			keep := pending[:0]
			for _, p := range pending {
				if r.crossBlocks(in, p.val) {
					r.at(p.val).lb++
				} else {
					keep = append(keep, p)
				}
			}
			pending = keep
		}

		// Update facts.
		switch {
		case in.Op == LdLoc:
			if in.Dst != nil {
				if f := r.at(in.Dst); f.lb < 1 {
					f.lb = 1
				}
				r.setHold(in.I64, in.Dst)
			}
		case in.Op == StLoc:
			r.at(in.Args[0]).stored = true
			if old := r.hold(in.I64); old != nil && r.lb(old) > 0 {
				r.at(old).lb--
			}
			r.setHold(in.I64, in.Args[0])
		case in.Op == DecRef:
			if r.lb(in.Args[0]) > 0 {
				r.at(in.Args[0]).lb--
			}
		case in.Op.has(fOwned):
			// Helper results arrive owned.
			if in.Dst != nil && in.Dst.Type.MaybeCounted() {
				if f := r.at(in.Dst); f.lb < 1 {
					f.lb = 1
				}
			}
			// Consumed arguments lose their bound.
			for _, a := range in.Args {
				r.at(a).lb = 0
			}
		}
	}
	// Pending IncRefs that never met a DecRef simply stay in place.
	r.pending = pending
}

// crossBlocks reports whether sinking an IncRef of t past in is
// UNSAFE (true = blocked).
func (r *rce) crossBlocks(in *Instr, t *SSATmp) bool {
	// Side exits and chained guards materialize VM state; if t's
	// count is frame-visible there, the pending IncRef must not cross.
	if in.Exit != nil || in.Taken != nil {
		if r.stored(t) || inExitStack(in.Exit, t) {
			return true
		}
	}
	switch {
	case in.Op == DecRef:
		// t itself was handled by pair elimination before this. An
		// aliasing DecRef could reach zero and run a destructor that the
		// program (with the IncRef done) would not run.
		u := in.Args[0]
		return u == t || mayAliasRC(u, t) && r.lb(t) < 2
	case in.Op.has(fEscapes):
		// The value (or the whole frame) escapes.
		return true
	case in.Op.has(fConsumes):
		// The helper releases its operands: as for a DecRef, the count
		// of anything they may alias must not be short by the pending
		// IncRef when it does.
		for _, u := range in.Args {
			if u == t || mayAliasRC(u, t) && r.lb(t) < 2 {
				return true
			}
		}
		return false
	case in.Op.has(fCOW | fCOWStr):
		// COW observability: mutating an array (or appending to a
		// string) that may alias t with count 1 would skip the copy the
		// program expects.
		mutated := types.TArr
		if in.Op.has(fCOWStr) {
			mutated = types.TStr
		}
		return t.Type.Maybe(mutated) && r.lb(t) < 2
	case in.Op == StLoc:
		// Storing t itself makes its count frame-visible.
		return in.Args[0] == t
	}
	return false
}

func inExitStack(ex *ExitDesc, t *SSATmp) bool {
	if ex == nil {
		return false
	}
	for _, v := range ex.Stack {
		if v == t {
			return true
		}
	}
	for ic := ex.Inline; ic != nil; ic = ic.Parent {
		for _, v := range ic.CallerStack {
			if v == t {
				return true
			}
		}
		if ic.This == t {
			return true
		}
	}
	return false
}

// mayAliasRC reports whether two values could be the same counted
// heap entity.
func mayAliasRC(a, b *SSATmp) bool {
	if a == b {
		return true
	}
	ak := a.Type.Kind() & types.KCounted
	bk := b.Type.Kind() & types.KCounted
	if ak&bk == 0 {
		return false
	}
	// Fresh allocations are distinct from everything else defined
	// before them.
	fresh := func(t *SSATmp) bool { return t.Def != nil && t.Def.Op.has(fFresh) }
	return !fresh(a) && !fresh(b)
}
