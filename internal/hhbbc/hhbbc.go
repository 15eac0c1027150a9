// Package hhbbc is the HipHop Bytecode-to-Bytecode Compiler: the
// ahead-of-time pass that runs whole-function static type inference
// over HHBC and communicates its results to the runtime by inserting
// AssertRATL instructions (Section 2.3). The JIT consumes the
// assertions to avoid runtime guards for statically-known types.
package hhbbc

import (
	"repro/internal/hhbc"
	"repro/internal/slab"
	"repro/internal/types"
)

// Optimize analyzes and rewrites every function in the unit. Each
// function's instructions leave it in a slice of exactly their length:
// the unit keeps them for the life of the process, and the emitter's
// append slack would be up to half of them. The analysis runs in one
// scratch for the whole unit, so what it allocates is what the unit
// keeps.
func Optimize(u *hhbc.Unit) error {
	var sc scratch
	for _, f := range u.Funcs {
		sc.optimizeFunc(u, f)
		if cap(f.Instrs) > len(f.Instrs) {
			f.Instrs = append(make([]hhbc.Instr, 0, len(f.Instrs)), f.Instrs...)
		}
	}
	return hhbc.VerifyUnit(u)
}

// scratch is the analysis state of one function, resized in place for
// the next.
type scratch struct {
	u *hhbc.Unit
	f *hhbc.Func

	leaders []bool // by pc, one past the end included
	blockOf []int  // by pc
	starts  []int  // each block's first pc
	// in[b] is block b's in-state, a window of arena: its locals, then
	// its stack. A block's stack depth is fixed the first time it is
	// reached; later states merge into the slots it has.
	in    []inState
	arena []types.Type
	// The state the walk carries through a block.
	locals, stack []types.Type

	work    []int  // blocks to visit, first in first out
	queued  []bool // by block: on work
	reads   []bool // by slot: read by the block being asserted
	inserts []insertion
	newPC   []int
}

// inState locates a block's in-state in the arena.
type inState struct {
	off, depth int
	reached    bool
}

// insertion is one AssertRATL to insert before the instruction at pc.
type insertion struct {
	pc   int
	slot int32
	b, c int32
}

// zeroed returns xs with length n, every element zero.
func zeroed[T any](xs []T, n int) []T {
	xs = slab.Grow(xs, n)
	clear(xs)
	return xs
}

// inLocals and inStack return block b's in-state.
func (sc *scratch) inLocals(b int) []types.Type {
	off := sc.in[b].off
	return sc.arena[off : off+sc.f.NumLocals]
}

func (sc *scratch) inStack(b int) []types.Type {
	off := sc.in[b].off + sc.f.NumLocals
	return sc.arena[off : off+sc.in[b].depth]
}

func (sc *scratch) optimizeFunc(u *hhbc.Unit, f *hhbc.Func) {
	if len(f.Instrs) == 0 {
		return
	}
	sc.u, sc.f = u, f
	sc.findLeaders()
	sc.blockOf = slab.Grow(sc.blockOf, len(f.Instrs))
	sc.starts = sc.starts[:0]
	for pc := range f.Instrs {
		if sc.leaders[pc] {
			sc.starts = append(sc.starts, pc)
		}
		sc.blockOf[pc] = len(sc.starts) - 1
	}
	nb := len(sc.starts)
	sc.in = zeroed(sc.in, nb)
	sc.queued = zeroed(sc.queued, nb)
	sc.arena = sc.arena[:0]
	sc.work = sc.work[:0]

	// Entry state.
	sc.locals = slab.Grow(sc.locals, f.NumLocals)
	for i := range sc.locals {
		if i < len(f.Params) {
			sc.locals[i] = types.TCell
		} else {
			sc.locals[i] = types.TUninit
		}
	}
	sc.stack = sc.stack[:0]
	sc.enter(0)
	sc.queue(0)
	// Handlers start with an empty stack (Catch pushes) and may see
	// any state.
	for i := range sc.locals {
		sc.locals[i] = types.TCell
	}
	for _, eh := range f.EHTable {
		b := sc.blockOf[eh.Handler]
		if !sc.in[b].reached {
			sc.enter(b)
		}
		sc.queue(b)
	}

	flow := func(spc int) {
		if sb := sc.blockOf[spc]; sc.propagate(sb) {
			sc.queue(sb)
		}
	}
	for h := 0; h < len(sc.work); h++ {
		b := sc.work[h]
		sc.queued[b] = false
		sc.locals = append(sc.locals[:0], sc.inLocals(b)...)
		sc.stack = append(sc.stack[:0], sc.inStack(b)...)
		for pc := sc.starts[b]; pc < sc.blockEnd(b); pc++ {
			sc.transfer(pc)
			if !f.ForEachSuccessor(pc, flow) {
				break
			}
			if sc.leaders[pc+1] {
				flow(pc + 1)
			}
		}
	}

	sc.insertAsserts()
}

func (sc *scratch) blockEnd(b int) int {
	if b+1 < len(sc.starts) {
		return sc.starts[b+1]
	}
	return len(sc.f.Instrs)
}

// enter makes the carried state block b's first in-state.
func (sc *scratch) enter(b int) {
	sc.in[b] = inState{off: len(sc.arena), depth: len(sc.stack), reached: true}
	sc.arena = append(sc.arena, sc.locals...)
	sc.arena = append(sc.arena, sc.stack...)
}

// queue appends b to the work list unless it is on it.
func (sc *scratch) queue(b int) {
	if !sc.queued[b] {
		sc.queued[b] = true
		sc.work = append(sc.work, b)
	}
}

// propagate merges the carried state into block b's in-state and
// reports whether that changed it.
func (sc *scratch) propagate(b int) bool {
	if !sc.in[b].reached {
		sc.enter(b)
		return true
	}
	changed := false
	merge := func(into, from []types.Type) {
		for i := range into {
			if i < len(from) {
				if t := into[i].Union(from[i]); t != into[i] {
					into[i] = t
					changed = true
				}
			}
		}
	}
	merge(sc.inLocals(b), sc.locals)
	merge(sc.inStack(b), sc.stack)
	return changed
}

// transfer abstractly executes the instruction at pc over the carried
// state, with hhbc's typing rules: the operands come off the stack,
// the results go on, the instruction's local is retyped.
func (sc *scratch) transfer(pc int) {
	in := sc.f.Instrs[pc]
	base := len(sc.stack) - in.NumPop()
	slot := in.LocalSlot()
	var local types.Type
	if slot >= 0 {
		local = sc.locals[slot]
	}
	push, local := hhbc.InstrTypes(sc.u, sc.f, in, sc.stack[base:], local)
	sc.stack = append(sc.stack[:base], push[:in.NumPush()]...)
	if slot >= 0 {
		sc.locals[slot] = local
	}
}

func (sc *scratch) findLeaders() {
	f := sc.f
	leaders := zeroed(sc.leaders, len(f.Instrs)+1)
	leaders[0] = true
	for pc := range f.Instrs {
		branches := false
		fall := f.ForEachSuccessor(pc, func(t int) { leaders[t], branches = true, true })
		if branches || !fall {
			leaders[pc+1] = true
		}
	}
	for _, eh := range f.EHTable {
		leaders[eh.Handler], leaders[eh.Start], leaders[eh.End] = true, true, true
	}
	sc.leaders = leaders
}

// insertAsserts adds AssertRATL at block starts for locals whose
// inferred type is informative and which the block actually reads,
// then remaps all jump targets. Asserts at one block start go in slot
// order: bytecode must be reproducible across compiles (jumpstart keys
// snapshots by bytecode hash).
func (sc *scratch) insertAsserts() {
	u, f := sc.u, sc.f
	sc.reads = zeroed(sc.reads, f.NumLocals)
	sc.inserts = sc.inserts[:0]
	for b, start := range sc.starts {
		if !sc.in[b].reached {
			continue
		}
		for _, in := range f.Instrs[start:sc.blockEnd(b)] {
			if in.Op.ReadsLocal() {
				sc.reads[in.LocalSlot()] = true
			}
		}
		locals := sc.inLocals(b)
		for slot, read := range sc.reads {
			if !read {
				continue
			}
			sc.reads[slot] = false
			if t := locals[slot]; informative(t) {
				eb, ec := u.EncodeRAT(t)
				sc.inserts = append(sc.inserts, insertion{pc: start, slot: int32(slot), b: eb, c: ec})
			}
		}
	}
	if len(sc.inserts) == 0 {
		return
	}

	// Rebuild with remapping; inserts are in pc order.
	newPC := slab.Grow(sc.newPC, len(f.Instrs)+1)
	sc.newPC = newPC
	out := make([]hhbc.Instr, 0, len(f.Instrs)+len(sc.inserts))
	next := 0
	for pc, instr := range f.Instrs {
		newPC[pc] = len(out)
		for ; next < len(sc.inserts) && sc.inserts[next].pc == pc; next++ {
			ins := sc.inserts[next]
			out = append(out, hhbc.Instr{Op: hhbc.OpAssertRATL, A: ins.slot, B: ins.b, C: ins.c})
		}
		out = append(out, instr)
	}
	newPC[len(f.Instrs)] = len(out)

	for i := range out {
		out[i].RemapTargets(newPC)
	}
	for si := range f.Switches {
		sw := &f.Switches[si]
		for ti := range sw.Targets {
			sw.Targets[ti] = newPC[sw.Targets[ti]]
		}
		sw.Default = newPC[sw.Default]
	}
	for ei := range f.EHTable {
		f.EHTable[ei].Start = newPC[f.EHTable[ei].Start]
		f.EHTable[ei].End = newPC[f.EHTable[ei].End]
		f.EHTable[ei].Handler = newPC[f.EHTable[ei].Handler]
	}
	f.Instrs = out
}

// informative reports whether an inferred type is worth asserting.
func informative(t types.Type) bool {
	if t.IsBottom() || types.TCell.SubtypeOf(t) {
		return false
	}
	// Assertions are most valuable when they pin the kind or prove
	// uncountedness.
	return t.IsSpecific() || t.SubtypeOf(types.TUncounted) || t.SubtypeOf(types.TNum)
}
