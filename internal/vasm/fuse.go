package vasm

// Dispatch fusion (PR 8). Fuse is a post-regalloc peephole pass that
// rewrites hot adjacent instruction pairs (and IncRef/DecRef runs)
// into single superinstructions, in the spirit of OCamlJIT-style
// opcode fusion: the machine dispatches once where it used to
// dispatch twice. Fusion never changes observable behavior — a
// superinstruction performs every component's effect in component
// order, including all destination writes, and its encoded size and
// static cost are defined as the sums of its components' (see
// Op.Components, mcode.ComponentSizes and machine.instrCost), so code-cache
// addresses, icache/iTLB behavior, and guest cycle totals are
// bit-identical to unfused code.
//
// The pass runs after Layout and Allocate: operands are physical (or
// spill) registers and blocks are final, so fusion windows are exact
// adjacency in the encoded stream. Pairs never cross block
// boundaries (all control transfers land on block starts), and no
// fused opcode is smashable.

// Fuse rewrites fusable adjacent pairs in every block of u into
// superinstructions and returns the number of instructions
// eliminated. Greedy left-to-right, non-overlapping.
func Fuse(u *Unit) int {
	fused := 0
	for _, b := range u.Blocks {
		ins := b.Instrs
		out := ins[:0]
		for i := 0; i < len(ins); i++ {
			cur := ins[i]
			// IncRef/DecRef runs of >= 2 collapse to one N-ary op.
			if cur.Op == IncRef || cur.Op == DecRef {
				j := i + 1
				for j < len(ins) && ins[j].Op == cur.Op {
					j++
				}
				if n := j - i; n >= 2 {
					regs := u.mem.regs.Window(n)
					for k, c := range ins[i:j] {
						regs[k] = c.A
					}
					f := nzInstr(fusedFrom(cur.Op))
					f.Args = regs
					out = append(out, f)
					fused += n - 1
					i = j - 1
					continue
				}
				out = append(out, cur)
				continue
			}
			if i+1 < len(ins) {
				if f, ok := fusePair(&cur, &ins[i+1]); ok {
					out = append(out, f)
					fused++
					i++
					continue
				}
			}
			out = append(out, cur)
		}
		b.Instrs = out
	}
	return fused
}

// fusePair returns the superinstruction for the adjacent pair (a, b)
// if they match a fusion pattern.
func fusePair(a, b *Instr) (Instr, bool) {
	op := fusedFrom(a.Op, b.Op)
	switch {
	case op == LdLocGK && b.A == a.D:
		// Load a local and guard the loaded value's kind.
		return Instr{
			Op: op, D: a.D, A: InvalidReg, B: InvalidReg,
			I64: a.I64, Target1: b.Target1, Target2: b.Target2,
		}, true
	case (op == CmpIJcc || op == CmpDJcc) && b.A == a.D:
		// Compare-and-branch; keep Jcc's inversion bit (0x100) set by
		// jump optimization alongside the compare condition.
		return Instr{
			Op: op, D: a.D, A: a.A, B: a.B,
			I64:     (a.I64 & 0xff) | (b.I64 & 0x100),
			Target1: b.Target1, Target2: b.Target2,
		}, true
	}
	return Instr{}, false
}
