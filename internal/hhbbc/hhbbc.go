// Package hhbbc is the HipHop Bytecode-to-Bytecode Compiler: the
// ahead-of-time pass that runs whole-function static type inference
// over HHBC and communicates its results to the runtime by inserting
// AssertRATL instructions (Section 2.3). The JIT consumes the
// assertions to avoid runtime guards for statically-known types.
package hhbbc

import (
	"sort"

	"repro/internal/hhbc"
	"repro/internal/types"
)

// Optimize analyzes and rewrites every function in the unit. Each
// function's instructions leave it in a slice of exactly their length:
// the unit keeps them for the life of the process, and the emitter's
// append slack would be up to half of them.
func Optimize(u *hhbc.Unit) error {
	for _, f := range u.Funcs {
		optimizeFunc(u, f)
		if cap(f.Instrs) > len(f.Instrs) {
			f.Instrs = append(make([]hhbc.Instr, 0, len(f.Instrs)), f.Instrs...)
		}
	}
	return hhbc.VerifyUnit(u)
}

// state is the abstract state at a program point.
type state struct {
	locals []types.Type
	stack  []types.Type
}

func (s *state) clone() *state {
	ns := &state{
		locals: append([]types.Type(nil), s.locals...),
		stack:  append([]types.Type(nil), s.stack...),
	}
	return ns
}

// merge unions o into s; reports change.
func (s *state) merge(o *state) bool {
	changed := false
	for i := range s.locals {
		u := s.locals[i].Union(o.locals[i])
		if u != s.locals[i] {
			s.locals[i] = u
			changed = true
		}
	}
	for i := range s.stack {
		if i < len(o.stack) {
			u := s.stack[i].Union(o.stack[i])
			if u != s.stack[i] {
				s.stack[i] = u
				changed = true
			}
		}
	}
	return changed
}

func optimizeFunc(u *hhbc.Unit, f *hhbc.Func) {
	if len(f.Instrs) == 0 {
		return
	}
	leaders := findLeaders(f)
	blockOf := make([]int, len(f.Instrs))
	var starts []int
	for pc := range f.Instrs {
		if leaders[pc] {
			starts = append(starts, pc)
		}
		blockOf[pc] = len(starts) - 1
	}
	blockEnd := func(b int) int {
		if b+1 < len(starts) {
			return starts[b+1]
		}
		return len(f.Instrs)
	}

	// Entry state.
	entry := &state{locals: make([]types.Type, f.NumLocals)}
	for i := range entry.locals {
		if i < len(f.Params) {
			entry.locals[i] = types.TCell
		} else {
			entry.locals[i] = types.TUninit
		}
	}

	in := make([]*state, len(starts))
	in[0] = entry
	// Handlers start with an empty stack (Catch pushes).
	for _, eh := range f.EHTable {
		b := blockOf[eh.Handler]
		if in[b] == nil {
			hs := entry.clone()
			for i := range hs.locals {
				hs.locals[i] = types.TCell // handler may see any state
			}
			hs.stack = nil
			in[b] = hs
		}
	}

	work := []int{0}
	seen := map[int]bool{0: true}
	for _, eh := range f.EHTable {
		b := blockOf[eh.Handler]
		if !seen[b] {
			seen[b] = true
			work = append(work, b)
		}
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		seen[b] = false
		if in[b] == nil {
			continue
		}
		st := in[b].clone()
		flow := func(spc int) {
			sb := blockOf[spc]
			if propagate(in, sb, st) && !seen[sb] {
				seen[sb] = true
				work = append(work, sb)
			}
		}
		for pc := starts[b]; pc < blockEnd(b); pc++ {
			transfer(u, f, st, pc)
			if !f.ForEachSuccessor(pc, flow) {
				break
			}
			if leaders[pc+1] {
				flow(pc + 1)
			}
		}
	}

	insertAsserts(u, f, starts, blockEnd, in)
}

// transfer abstractly executes the instruction at pc over st, with
// hhbc's typing rules: the operands come off the stack, the results go
// on, the instruction's local is retyped.
func transfer(u *hhbc.Unit, f *hhbc.Func, st *state, pc int) {
	in := f.Instrs[pc]
	base := len(st.stack) - in.NumPop()
	slot := in.LocalSlot()
	var local types.Type
	if slot >= 0 {
		local = st.locals[slot]
	}
	push, local := hhbc.InstrTypes(u, f, in, st.stack[base:], local)
	st.stack = append(st.stack[:base], push[:in.NumPush()]...)
	if slot >= 0 {
		st.locals[slot] = local
	}
}

func propagate(in []*state, b int, st *state) bool {
	if in[b] == nil {
		in[b] = st.clone()
		return true
	}
	return in[b].merge(st)
}

func findLeaders(f *hhbc.Func) []bool {
	leaders := make([]bool, len(f.Instrs)+1)
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
	return leaders
}

// insertAsserts adds AssertRATL at block starts for locals whose
// inferred type is informative and which the block actually reads,
// then remaps all jump targets.
func insertAsserts(u *hhbc.Unit, f *hhbc.Func, starts []int, blockEnd func(int) int, in []*state) {
	type insertion struct {
		slot int32
		b, c int32
	}
	inserts := make(map[int][]insertion) // old pc -> asserts
	total := 0
	for b := range starts {
		if in[b] == nil {
			continue
		}
		reads := localReads(f, starts[b], blockEnd(b))
		// Deterministic emission order: bytecode must be reproducible
		// across compiles (jumpstart keys snapshots by bytecode hash).
		slots := make([]int, 0, len(reads))
		for slot := range reads {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		for _, slot := range slots {
			t := in[b].locals[slot]
			if !informative(t) {
				continue
			}
			eb, ec := u.EncodeRAT(t)
			inserts[starts[b]] = append(inserts[starts[b]],
				insertion{slot: int32(slot), b: eb, c: ec})
			total++
		}
	}
	if total == 0 {
		return
	}

	// Rebuild with remapping.
	newPC := make([]int, len(f.Instrs)+1)
	out := make([]hhbc.Instr, 0, len(f.Instrs)+total)
	for pc, instr := range f.Instrs {
		newPC[pc] = len(out)
		for _, ins := range inserts[pc] {
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

// localReads collects locals read in [start, end).
func localReads(f *hhbc.Func, start, end int) map[int]bool {
	reads := map[int]bool{}
	for _, in := range f.Instrs[start:end] {
		if in.Op.ReadsLocal() {
			reads[in.LocalSlot()] = true
		}
	}
	return reads
}
