package vasm

import (
	"fmt"
	"slices"
)

// Clone returns a deep copy of the unit's code: blocks, instructions,
// argument lists and exit descriptors (the constant pool and jump
// tables, which no pass rewrites, are shared). Allocate rewrites its
// unit in place; callers that want to check its work keep a clone of
// what went in.
func (u *Unit) Clone() *Unit {
	c := *u
	c.Layout = slices.Clone(u.Layout)
	c.RegOf = slices.Clone(u.RegOf)
	c.Blocks = make([]*Block, len(u.Blocks))
	for bi, b := range u.Blocks {
		nb := *b
		nb.Instrs = slices.Clone(b.Instrs)
		for i := range nb.Instrs {
			in := &nb.Instrs[i]
			in.Args = slices.Clone(in.Args)
			if in.Ex != nil {
				ex := *in.Ex
				ex.StackRegs = slices.Clone(ex.StackRegs)
				link := &ex.Inline
				for ii := ex.Inline; ii != nil; ii = ii.Parent {
					ni := *ii
					ni.CallerStackRegs = slices.Clone(ii.CallerStackRegs)
					*link, link = &ni, &ni.Parent
				}
				in.Ex = &ex
			}
		}
		c.Blocks[bi] = &nb
	}
	return &c
}

// VerifyAllocation checks the work of Allocate: before is a Clone of
// the laid-out unit that went in, after the unit that came out. It
// recomputes liveness on before per instruction with the textbook
// dataflow (sharing only ForEachTarget and ForEachUse with the
// allocator), and requires that
//
//   - at every position — before each instruction, after it together
//     with the register it writes, and hence across every edge — the
//     live vregs have pairwise different locations in after.RegOf, each
//     a physical register or a spill slot of the unit;
//   - after's code is before's with every register replaced by its
//     location: spilled operands reloaded into the scratch registers
//     and spilled results stored back, argument, exit-stack and
//     inline-frame lists naming locations directly, and nothing dropped
//     except copies between one and the same register.
//
// The first violation found is returned.
func VerifyAllocation(before, after *Unit) error {
	order := before.Order()
	if !slices.Equal(order, after.Order()) {
		return fmt.Errorf("vasm: allocation changed the layout")
	}
	loc := func(r Reg) Reg {
		if r < 0 || int(r) >= len(after.RegOf) {
			return InvalidReg
		}
		return after.RegOf[r]
	}

	// Linearize; start[b] is the position of block b's first instruction.
	type ref struct{ block, idx int }
	var lin []ref
	start := make([]int, len(before.Blocks))
	for i := range start {
		start[i] = -1
	}
	for _, bi := range order {
		if len(before.Blocks[bi].Instrs) > 0 {
			start[bi] = len(lin)
		}
		for i := range before.Blocks[bi].Instrs {
			lin = append(lin, ref{bi, i})
		}
	}
	instr := func(p int) *Instr { return &before.Blocks[lin[p].block].Instrs[lin[p].idx] }
	lastOfBlock := func(p int) bool { return lin[p].idx == len(before.Blocks[lin[p].block].Instrs)-1 }

	// liveBefore[p][v]: v is live on entry to instruction p.
	liveBefore := make([]map[Reg]bool, len(lin))
	for p := range liveBefore {
		liveBefore[p] = map[Reg]bool{}
	}
	liveAfter := func(p int) map[Reg]bool {
		if lastOfBlock(p) {
			return nil
		}
		return liveBefore[p+1]
	}
	for changed := true; changed; {
		changed = false
		for p := len(lin) - 1; p >= 0; p-- {
			in, live := instr(p), liveBefore[p]
			add := func(r Reg) {
				if !live[r] {
					live[r], changed = true, true
				}
			}
			for r := range liveAfter(p) {
				if r != in.D {
					add(r)
				}
			}
			in.ForEachTarget(before.Tables, func(t int) {
				if t >= 0 && t < len(start) && start[t] >= 0 {
					for r := range liveBefore[start[t]] {
						add(r)
					}
				}
			})
			in.ForEachUse(add)
		}
	}

	var undefined map[Reg]bool
	if len(start) > 0 && start[0] >= 0 {
		undefined = liveBefore[start[0]]
	}
	distinct := func(p int, when string, live map[Reg]bool, def Reg) error {
		holder := map[Reg]Reg{}
		check := func(r Reg) error {
			if undefined[r] {
				return nil // has no location by design; assembly rejects the unit
			}
			l := loc(r)
			switch {
			case l >= 0 && l < NumPhysRegs:
			case l >= SpillRegBase && int(l-SpillRegBase) < after.NumSpills:
			default:
				return fmt.Errorf("vasm: %s #%d (%s): live r%d has no valid location (%d)", when, p, instr(p), r, l)
			}
			if other, taken := holder[l]; taken && other != r {
				return fmt.Errorf("vasm: %s #%d (%s): r%d and r%d are both live in location %d",
					when, p, instr(p), other, r, l)
			}
			holder[l] = r
			return nil
		}
		for r := range live {
			if r == def {
				continue
			}
			if err := check(r); err != nil {
				return err
			}
		}
		if def != InvalidReg {
			return check(def)
		}
		return nil
	}
	for p := range lin {
		if err := distinct(p, "before", liveBefore[p], InvalidReg); err != nil {
			return err
		}
		if err := distinct(p, "after", liveAfter(p), instr(p).D); err != nil {
			return err
		}
	}

	// The rewritten code, block by block.
	named := func(r Reg) Reg { // how a list names r
		if r == InvalidReg {
			return InvalidReg
		}
		if l := loc(r); l != InvalidReg {
			return l
		}
		return unallocatedReg
	}
	sameRegs := func(got, want []Reg) bool {
		if len(got) != len(want) {
			return false
		}
		for i, r := range want {
			if got[i] != named(r) {
				return false
			}
		}
		return true
	}
	for _, bi := range order {
		bad := func(i int, format string, args ...any) error {
			return fmt.Errorf("vasm: B%d #%d (%s): %s", bi, i, &before.Blocks[bi].Instrs[i], fmt.Sprintf(format, args...))
		}
		got := after.Blocks[bi].Instrs
		next := func() *Instr {
			if len(got) == 0 {
				return &Instr{Op: opCount}
			}
			in := &got[0]
			got = got[1:]
			return in
		}
		for i := range before.Blocks[bi].Instrs {
			want := before.Blocks[bi].Instrs[i]
			if d := named(want.D); want.Op == Copy && d >= 0 && d < NumPhysRegs && d == named(want.A) {
				continue
			}
			for _, op := range []struct{ r, scratch Reg }{{want.A, scratch0}, {want.B, scratch1}} {
				if l := named(op.r); l >= SpillRegBase {
					if in := next(); in.Op != Reload || in.D != op.scratch || in.I64 != int64(l-SpillRegBase) {
						return bad(i, "spilled r%d is not reloaded into r%d first (found %s)", op.r, op.scratch, in)
					}
				}
			}
			in := next()
			operand := func(r, scratch Reg) Reg {
				if l := named(r); l < SpillRegBase {
					return l
				}
				return scratch
			}
			want.A, want.B, want.D = operand(want.A, scratch0), operand(want.B, scratch1), operand(want.D, scratch0)
			if in.Op != want.Op || in.A != want.A || in.B != want.B || in.D != want.D ||
				in.I64 != want.I64 || in.Str != want.Str || in.TypeParam != want.TypeParam ||
				in.Target1 != want.Target1 || in.Target2 != want.Target2 {
				return bad(i, "rewritten as %s, want %s", in, &want)
			}
			if !sameRegs(in.Args, before.Blocks[bi].Instrs[i].Args) {
				return bad(i, "args rewritten as %v", in.Args)
			}
			if (in.Ex == nil) != (want.Ex == nil) {
				return bad(i, "exit descriptor dropped or invented")
			}
			if want.Ex != nil {
				if !sameRegs(in.Ex.StackRegs, want.Ex.StackRegs) {
					return bad(i, "exit stack rewritten as %v", in.Ex.StackRegs)
				}
				gi := in.Ex.Inline
				for wi := want.Ex.Inline; wi != nil; wi, gi = wi.Parent, gi.Parent {
					if gi == nil || gi.ThisReg != named(wi.ThisReg) || !sameRegs(gi.CallerStackRegs, wi.CallerStackRegs) {
						return bad(i, "inline frame of func %d rewritten wrongly", wi.FuncID)
					}
				}
				if gi != nil {
					return bad(i, "extra inline frame")
				}
			}
			if l := named(before.Blocks[bi].Instrs[i].D); l >= SpillRegBase {
				if sp := next(); sp.Op != Spill || sp.A != scratch0 || sp.I64 != int64(l-SpillRegBase) {
					return bad(i, "spilled result is not stored to slot %d (found %s)", l-SpillRegBase, sp)
				}
			}
		}
		if len(got) != 0 {
			return fmt.Errorf("vasm: B%d: %d instructions the input does not account for, first %s", bi, len(got), &got[0])
		}
	}
	return nil
}
