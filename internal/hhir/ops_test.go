package hhir

import "testing"

// TestOpTableRows: every opcode has a named row, and the flags of a row
// do not contradict each other.
func TestOpTableRows(t *testing.T) {
	const effects = fReleases | fGuest | fEscapes | fStoresSlot | fKillsSlot | fConsumes | fCOW | fCOWStr | fStoresProp
	seen := map[string]Opcode{}
	for o := Opcode(0); o < opcodeCount; o++ {
		name, f := opTable[o].name, opTable[o].flags
		if name == "" {
			t.Errorf("opcode %d has no row", o)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d are both named %s", prev, o, name)
		}
		seen[name] = o
		if f&fPure != 0 && f&(effects|fTerm) != 0 {
			t.Errorf("%s is pure and has an effect (flags %b)", o, f)
		}
		if f&fConsumes != 0 && f&fReleases == 0 {
			t.Errorf("%s releases its operands but is not marked as releasing", o)
		}
		if f&(fStoresSlot|fKillsSlot) != 0 && f&fI64 == 0 {
			t.Errorf("%s writes a frame slot its I64 does not name", o)
		}
		if f&fFresh != 0 && f&fOwned == 0 {
			t.Errorf("%s allocates a result that does not arrive owned", o)
		}
	}
	if s := opcodeCount.String(); s != "Opcode?" {
		t.Errorf("an opcode out of range prints as %q", s)
	}
}

// TestInstrEffects: the readers passes use answer from the table.
func TestInstrEffects(t *testing.T) {
	for _, tc := range []struct {
		in   Instr
		eff  SlotEffect
		slot int64
	}{
		{Instr{Op: StLoc, I64: 3}, SlotStore, 3},
		{Instr{Op: ArrAppendLocal, I64: 5}, SlotKill, 5},
		{Instr{Op: VerifyParam, I64: packVerify(9, 1, 7)}, SlotKill, 7},
		{Instr{Op: LdLoc, I64: 2}, SlotNone, 0},
		{Instr{Op: CallFunc, I64: 4}, SlotNone, 0},
	} {
		if eff, slot := tc.in.SlotEffect(); eff != tc.eff || slot != tc.slot {
			t.Errorf("%s: slot effect %d on %d, want %d on %d", tc.in.Op, eff, slot, tc.eff, tc.slot)
		}
	}
	plain, dtors := &Unit{}, &Unit{HasDtor: true}
	for _, tc := range []struct {
		op               Opcode
		inPlain, inDtors bool
	}{
		{CallMethodC, true, true},
		{DecRef, false, true},
		{ArrSetLocal, false, true},
		{ArrUnsetLocal, false, true},
		{StPropSlot, false, true},
		{ArrAppendLocal, false, false},
		{IncRef, false, false},
		{LdPropSlot, false, false},
	} {
		in := &Instr{Op: tc.op}
		if got := in.MayReenter(plain); got != tc.inPlain {
			t.Errorf("%s may reenter without destructors: %v", tc.op, got)
		}
		if got := in.MayReenter(dtors); got != tc.inDtors {
			t.Errorf("%s may reenter with destructors: %v", tc.op, got)
		}
	}
}
