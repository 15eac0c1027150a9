package hhbc

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Disassemble renders f against u's pools in a format close to the
// paper's Figure 3 listings.
func Disassemble(u *Unit, f *Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".function %s(", f.FullName())
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		if p.TypeHint != "" {
			if p.Nullable {
				sb.WriteString("?")
			}
			sb.WriteString(p.TypeHint + " ")
		}
		sb.WriteString("$" + p.Name)
	}
	fmt.Fprintf(&sb, ") numLocals=%d {\n", f.NumLocals)
	for pc, in := range f.Instrs {
		fmt.Fprintf(&sb, "  %4d: %s\n", pc, FormatInstr(u, f, in))
	}
	for _, eh := range f.EHTable {
		fmt.Fprintf(&sb, "  .try [%d,%d) -> %d\n", eh.Start, eh.End, eh.Handler)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// FormatInstr renders one instruction of a verified function with
// each immediate shown as its kind dictates (pool entries resolved,
// locals named).
func FormatInstr(u *Unit, f *Func, in Instr) string {
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	for i, k := range in.Op.info().imm {
		v := in.imm(i)
		switch k {
		case ImmNone, ImmRATClass:
			continue
		case ImmInt:
			fmt.Fprintf(&sb, " %d", u.Ints[v])
		case ImmDbl:
			fmt.Fprintf(&sb, " %g", u.Doubles[v])
		case ImmStr:
			fmt.Fprintf(&sb, " %q", u.Strings[v])
		case ImmLocal:
			fmt.Fprintf(&sb, " L:%d", v)
			if int(v) < len(f.LocalName) && f.LocalName[v] != "" {
				fmt.Fprintf(&sb, "($%s)", f.LocalName[v])
			}
		case ImmIter:
			fmt.Fprintf(&sb, " it:%d", v)
		case ImmTarget:
			fmt.Fprintf(&sb, " -> %d", v)
		case ImmSwitch:
			fmt.Fprintf(&sb, " table#%d", v)
		case ImmIncDec:
			sb.WriteString(" " + incDecNames[v])
		case ImmKinds:
			fmt.Fprintf(&sb, " %s", types.FromKind(types.Kind(v)))
		case ImmRAT:
			fmt.Fprintf(&sb, " %s", u.DecodeRAT(v, in.imm(i+1)))
		default: // counts, parameter and counter ids
			fmt.Fprintf(&sb, " %d", v)
		}
	}
	return sb.String()
}
