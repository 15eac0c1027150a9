package hhbc

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// VerifyFunc checks structural invariants of a function's bytecode:
// every opcode known and every immediate in range for its kind (both
// bounds, unreachable code included, so the disassembler and hhbbc can
// walk a verified function blindly), jump targets and handler ranges
// inside the function, stack depth consistent along all paths. The
// emitter's and hhbbc's output and every decoded unit are verified
// before execution.
func VerifyFunc(u *Unit, f *Func) error {
	n := len(f.Instrs)
	if n == 0 {
		return fmt.Errorf("%s: empty function", f.FullName())
	}
	if len(f.Params) > f.NumLocals {
		return fmt.Errorf("%s: %d params in %d locals", f.FullName(), len(f.Params), f.NumLocals)
	}
	if last := f.Instrs[n-1].Op; !last.IsUnconditionalExit() {
		return fmt.Errorf("%s: control can fall off the end (%s)", f.FullName(), last)
	}
	inFunc := func(pc int) bool { return pc >= 0 && pc < n }
	for si, sw := range f.Switches {
		ok := inFunc(sw.Default)
		for _, t := range sw.Targets {
			ok = ok && inFunc(t)
		}
		if !ok {
			return fmt.Errorf("%s: switch table %d: target out of range", f.FullName(), si)
		}
	}
	for pc, in := range f.Instrs {
		if err := checkImmediates(u, f, in); err != nil {
			return fmt.Errorf("%s: pc %d (%s): %w", f.FullName(), pc, in.Op, err)
		}
	}

	// depth[pc] = stack depth at entry, -1 unknown. Worklist walk.
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	type workItem struct{ pc, d int }
	work := []workItem{{0, 0}}
	for _, eh := range f.EHTable {
		if !inFunc(eh.Handler) || eh.Start < 0 || eh.Start > eh.End || eh.End > n {
			return fmt.Errorf("%s: bad EH entry [%d,%d) -> %d", f.FullName(), eh.Start, eh.End, eh.Handler)
		}
		// Handlers start with Catch, which pushes the exception onto
		// an empty stack.
		work = append(work, workItem{eh.Handler, 0})
	}
	for len(work) > 0 {
		pc, d := work[len(work)-1].pc, work[len(work)-1].d
		work = work[:len(work)-1]
		for {
			if depth[pc] >= 0 {
				if depth[pc] != d {
					return fmt.Errorf("%s: pc %d: inconsistent stack depth %d vs %d",
						f.FullName(), pc, depth[pc], d)
				}
				break
			}
			depth[pc] = d
			in := f.Instrs[pc]
			pops := in.NumPop()
			if d < pops {
				return fmt.Errorf("%s: pc %d (%s): stack underflow (depth %d, pops %d)",
					f.FullName(), pc, in.Op, d, pops)
			}
			d += in.NumPush() - pops
			fall := f.ForEachSuccessor(pc, func(t int) { work = append(work, workItem{t, d}) })
			if !fall {
				break
			}
			pc++
			if pc >= n {
				return fmt.Errorf("%s: fell off end at pc %d", f.FullName(), pc)
			}
		}
	}
	return nil
}

// checkImmediates range-checks in's immediates by their kind.
func checkImmediates(u *Unit, f *Func, in Instr) error {
	if in.Op >= opCount {
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	for i, k := range in.Op.info().imm {
		v := int(in.imm(i))
		var lo, limit int // v must lie in [lo, limit)
		what := ""
		switch k {
		case ImmNone:
			continue
		case ImmInt:
			what, limit = "int pool index", len(u.Ints)
		case ImmDbl:
			what, limit = "double pool index", len(u.Doubles)
		case ImmStr:
			what, limit = "string pool index", len(u.Strings)
		case ImmLocal:
			what, limit = "local", f.NumLocals
		case ImmIter:
			// Iterator slots are allocated per foreach, so a function
			// cannot name more of them than it has instructions.
			what, limit = "iterator", len(f.Instrs)
		case ImmTarget:
			what, limit = "jump target", len(f.Instrs)
		case ImmSwitch:
			what, limit = "switch table", len(f.Switches)
		case ImmParam:
			what, limit = "parameter", len(f.Params)
		case ImmCount, ImmCounter:
			what, limit = "count", math.MaxInt
			switch in.Op {
			case OpConcatN:
				lo = 2 // one operand is no concatenation
			case OpConcatL:
				lo = 1
			case OpNewArray:
				// A capacity hint: the literal's entry count, each entry
				// one AddElemC or AddNewElemC of the function. Bounding it
				// keeps a forged unit from sizing an allocation at will.
				limit = len(f.Instrs)
			}
		case ImmIncDec:
			what, limit = "inc/dec op", len(incDecNames)
		case ImmKinds:
			what, limit = "kind set", int(types.KCell)+1
		case ImmRAT:
			what, limit = "type", ratExactClass<<1
			if v>>ratArrShift&3 > int(types.ArrayMixed) {
				limit = 0 // no such array kind: nothing is in range
			}
		case ImmRATClass:
			what, limit = "class name index", len(u.Strings)+1
		}
		if v < lo || v >= limit {
			return fmt.Errorf("bad %s %d", what, v)
		}
	}
	return nil
}

// VerifyUnit verifies every function and that classes name methods
// the unit has.
func VerifyUnit(u *Unit) error {
	for _, f := range u.Funcs {
		if err := VerifyFunc(u, f); err != nil {
			return err
		}
	}
	for _, c := range u.Classes {
		for name, id := range c.Methods {
			if id < 0 || id >= len(u.Funcs) {
				return fmt.Errorf("class %s: method %s is function %d of %d", c.Name, name, id, len(u.Funcs))
			}
		}
	}
	if u.Main < 0 || u.Main >= len(u.Funcs) {
		return fmt.Errorf("unit has no main (%d)", u.Main)
	}
	return nil
}
