package hhir

import "repro/internal/types"

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
	for _, b := range u.Blocks {
		rceBlock(b)
	}
	commitDead(u)
}

type pendingInc struct {
	in  *Instr
	val *SSATmp
}

func rceBlock(b *Block) {
	// lower bound of count per value (excluding any pending IncRef).
	lb := map[*SSATmp]int{}
	// localHolds maps frame slot -> value it holds (for LdLoc facts).
	localHolds := map[int64]*SSATmp{}
	// stored marks values written into a local (their count is
	// frame-visible; side exits then observe it).
	stored := map[*SSATmp]bool{}

	var pending []pendingInc

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
				lb[t]++
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
				if crossBlocks(in, p.val, lb, stored) {
					lb[p.val]++
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
				if lb[in.Dst] < 1 {
					lb[in.Dst] = 1
				}
				localHolds[in.I64] = in.Dst
			}
		case in.Op == StLoc:
			stored[in.Args[0]] = true
			if old, ok := localHolds[in.I64]; ok && lb[old] > 0 {
				lb[old]--
			}
			localHolds[in.I64] = in.Args[0]
		case in.Op == DecRef:
			if lb[in.Args[0]] > 0 {
				lb[in.Args[0]]--
			}
		case in.Op.has(fOwned):
			// Helper results arrive owned.
			if in.Dst != nil && in.Dst.Type.MaybeCounted() {
				if lb[in.Dst] < 1 {
					lb[in.Dst] = 1
				}
			}
			// Consumed arguments lose their bound.
			for _, a := range in.Args {
				lb[a] = 0
			}
		}
	}
	// Pending IncRefs that never met a DecRef simply stay in place.
}

// crossBlocks reports whether sinking an IncRef of t past in is
// UNSAFE (true = blocked).
func crossBlocks(in *Instr, t *SSATmp, lb map[*SSATmp]int, stored map[*SSATmp]bool) bool {
	// Side exits and chained guards materialize VM state; if t's
	// count is frame-visible there, the pending IncRef must not cross.
	if in.Exit != nil || in.Taken != nil {
		if stored[t] || inExitStack(in.Exit, t) {
			return true
		}
	}
	switch {
	case in.Op == DecRef:
		// t itself was handled by pair elimination before this. An
		// aliasing DecRef could reach zero and run a destructor that the
		// program (with the IncRef done) would not run.
		u := in.Args[0]
		return u == t || mayAliasRC(u, t) && lb[t] < 2
	case in.Op.has(fEscapes):
		// The value (or the whole frame) escapes.
		return true
	case in.Op.has(fConsumes):
		// The helper releases its operands: as for a DecRef, the count
		// of anything they may alias must not be short by the pending
		// IncRef when it does.
		for _, u := range in.Args {
			if u == t || mayAliasRC(u, t) && lb[t] < 2 {
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
		return t.Type.Maybe(mutated) && lb[t] < 2
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
