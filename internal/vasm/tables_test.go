package vasm

import (
	"strings"
	"testing"

	"repro/internal/hhir"
)

// TestLowerTableCoversEveryOpcode: every HHIR opcode has a row, a row's
// form has what its driver reads, and every opcode marked as lowered by
// hand has a case in lowerByHand (an opcode without one used to be a
// "cannot lower" error at run time).
func TestLowerTableCoversEveryOpcode(t *testing.T) {
	for o := hhir.Opcode(0); int(o) < hhir.OpcodeCount; o++ {
		row := lowerTable[o]
		switch row.form {
		case formMissing:
			t.Errorf("%s has no lowering row", o)
		case formOp, formGuard, formCall:
			if row.op == Nop || row.helper != HNone {
				t.Errorf("%s: row of form %d names op %s, helper %s", o, row.form, row.op, row.helper)
			}
		case formHelper:
			if row.op != Helper || row.helper == HNone {
				t.Errorf("%s: helper row names op %s, helper %s", o, row.op, row.helper)
			}
		case formConv:
			if row.op == Nop || row.helper == HNone || row.carry != 0 {
				t.Errorf("%s: conversion row names op %s, helper %s, carries %b", o, row.op, row.helper, row.carry)
			}
		case formHand:
			// Whatever a bare instruction makes the case do — most of them
			// dereference an operand it lacks — it must not be the default.
			err := func() (err error) {
				defer func() { recover() }()
				hu := hhir.NewUnit(nil)
				lw := &lowerer{hu: hu, out: &Unit{Blocks: []*Block{{}}}, cur: &Block{}}
				return lw.lowerByHand(&hhir.Instr{Op: o})
			}()
			if err != nil && strings.Contains(err.Error(), "cannot lower") {
				t.Errorf("%s is marked as lowered by hand and lowerByHand has no case for it", o)
			}
		}
	}
}

// TestTablesNameEverything: every vasm op and every helper has a name,
// every superinstruction has components Fuse can find it by, and no
// ordinary op has any.
func TestTablesNameEverything(t *testing.T) {
	for o := Op(0); o < opCount; o++ {
		if o.String() == "op?" {
			t.Errorf("vasm op %d has no name", o)
		}
		parts := o.Components()
		if (o >= LdLocGK) != (parts != nil) {
			t.Errorf("%s: components %v", o, parts)
		}
		if parts != nil && fusedFrom(parts...) != o {
			t.Errorf("%s is not the superinstruction of its components %v", o, parts)
		}
		for _, p := range parts {
			if p.Components() != nil {
				t.Errorf("%s has the superinstruction %s as a component", o, p)
			}
		}
	}
	for h := HNone + 1; h < HelperCount; h++ {
		if h.String() == "" || h.String() == "helper?" {
			t.Errorf("helper %d has no name", h)
		}
	}
	if HNone.String() != "helper?" || HelperCount.String() != "helper?" {
		t.Error("a helper id out of range has a name")
	}
}
