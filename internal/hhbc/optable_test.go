package hhbc

import (
	"testing"

	"repro/internal/types"
)

// TestOpTableComplete: every opcode below opCount has a row with a
// name of its own, and the row's immediate kinds are exactly what the
// disassembler shows — changing a described immediate changes the
// listing, changing an undescribed one does not.
func TestOpTableComplete(t *testing.T) {
	u := NewUnit()
	for i := 0; i < 4; i++ {
		u.InternInt(int64(i))
		u.InternDouble(float64(i))
		u.InternString(string(rune('a' + i)))
	}
	f := &Func{Name: "f", NumLocals: 4, Params: make([]Param, 4),
		Instrs: make([]Instr, 4), Switches: make([]SwitchTable, 4)}
	names := map[string]Op{}
	for op := Op(0); op < opCount; op++ {
		row := opTable[op]
		if prev, dup := names[row.name]; dup || row.name == "" {
			t.Errorf("opcode %d: name %q (also opcode %d)", op, row.name, prev)
		}
		names[row.name] = op
		if row.pushes < 0 || row.pushes > 2 || row.pops < popsA1 {
			t.Errorf("%s: pops %d, pushes %d", op, row.pops, row.pushes)
		}
		base := Instr{Op: op, A: 2, B: 2, C: 2} // 2: the least ConcatN count
		for i, k := range row.imm {
			if k == ImmRAT {
				base.B = int32(types.KObj) // the class word only shows on an object type
			}
			alt := base
			*alt.immPtr(i) = 3
			shown := FormatInstr(u, f, alt) != FormatInstr(u, f, base)
			if shown != (k != ImmNone) {
				t.Errorf("%s: immediate %d has kind %d, FormatInstr shows it: %v", op, i, k, shown)
			}
			if err := checkImmediates(u, f, alt); err != nil {
				t.Errorf("%s: in-range immediates rejected: %v", op, err)
			}
		}
	}
	if (Instr{Op: opCount}).String() != "Op?" || (Op(255)).IsUnconditionalExit() {
		t.Error("an opcode outside the table must read as the unknown opcode")
	}
}
