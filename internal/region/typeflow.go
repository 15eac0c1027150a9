package region

import (
	"repro/internal/hhbc"
	"repro/internal/types"
)

// What an instruction pops, pushes, jumps to and produces is hhbc's
// (the opcode table, ForEachSuccessor, InstrTypes). This file is what
// is the selector's own: which type knowledge the JIT's code for each
// instruction relies on (Table 1), which operand types it has no code
// for, and where values on the symbolic stack came from.

// need is one constraint an instruction places on an input.
type need struct {
	at   int // operand index counted from the top of the stack, or one of the at* values
	con  TypeConstraint
	must bool // unmet: the tracelet ends before the instruction, instead of the code going generic
}

const (
	atLocal = -1 - iota // the local the instruction names
	atArgs              // each of the A arguments or elements on top of the stack
	atRecv              // the receiver under those A arguments
)

// needs is Table 1 for this bytecode, indexed by opcode. A list is in
// the order its constraints are established: a `must` that fails
// leaves the guards of the needs listed after it untouched.
var needs [256][]need

func init() {
	const want, must = false, true
	set := func(list []need, ops ...hhbc.Op) {
		for _, op := range ops {
			needs[op] = list
		}
	}
	set([]need{{0, ConCountness, want}}, hhbc.OpPopC, hhbc.OpDup, hhbc.OpRetC)
	set([]need{{0, ConSpecific, want}}, hhbc.OpNot, hhbc.OpCastBool, hhbc.OpCastInt, hhbc.OpCastDouble,
		hhbc.OpCastString, hhbc.OpJmpZ, hhbc.OpJmpNZ, hhbc.OpSwitch, hhbc.OpInstanceOfD, hhbc.OpPrint, hhbc.OpAKExistsL)
	set([]need{{0, ConSpecific, must}}, hhbc.OpNeg)
	set([]need{{1, ConSpecific, want}, {0, ConSpecific, want}}, hhbc.OpMod,
		hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte, hhbc.OpEq, hhbc.OpNeq, hhbc.OpSame, hhbc.OpNSame)
	set([]need{{1, ConSpecific, must}, {0, ConSpecific, must}}, hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul, hhbc.OpDiv)
	set([]need{{atArgs, ConCountness, want}}, hhbc.OpNewPackedArray, hhbc.OpFCallD, hhbc.OpFCallBuiltin)
	set([]need{{atArgs, ConSpecific, want}}, hhbc.OpConcatN)
	set([]need{{atArgs, ConSpecific, want}, {atLocal, ConSpecific, want}}, hhbc.OpConcatL)
	set([]need{{atArgs, ConCountness, want}, {atRecv, ConSpecialized, want}}, hhbc.OpFCallObjMethodD)
	set([]need{{atLocal, ConCountness, must}}, hhbc.OpCGetL, hhbc.OpCGetL2, hhbc.OpPushL, hhbc.OpUnsetL)
	set([]need{{0, ConCountness, want}, {atLocal, ConCountness, must}}, hhbc.OpPopL, hhbc.OpSetL)
	set([]need{{atLocal, ConSpecific, must}}, hhbc.OpIncDecL)
	set([]need{{atLocal, ConSpecialized, want}}, hhbc.OpIterInitL)
	set([]need{{0, ConCountness, want}, {1, ConSpecific, want}, {2, ConSpecialized, want}}, hhbc.OpAddElemC)
	set([]need{{0, ConCountness, want}, {1, ConSpecialized, want}}, hhbc.OpAddNewElemC)
	set([]need{{0, ConSpecific, must}, {1, ConSpecialized, must}}, hhbc.OpArrIdx)
	set([]need{{0, ConSpecific, must}, {atLocal, ConSpecialized, must}}, hhbc.OpArrGetL)
	set([]need{{0, ConSpecific, must}, {1, ConCountness, want}, {atLocal, ConSpecialized, must}}, hhbc.OpArrSetL)
	set([]need{{0, ConCountness, want}, {atLocal, ConSpecialized, must}}, hhbc.OpArrAppendL)
	set([]need{{0, ConSpecific, want}, {atLocal, ConSpecialized, must}}, hhbc.OpArrUnsetL)
	set([]need{{0, ConSpecialized, must}}, hhbc.OpCGetPropD)
	set([]need{{0, ConCountness, want}, {1, ConSpecialized, must}}, hhbc.OpSetPropD)
}

// step symbolically executes one instruction; false means it cannot
// be part of this tracelet (it starts the next one).
func (s *selector) step(in hhbc.Instr, pc int) bool {
	top := len(s.stack) - 1
	base := len(s.stack) - in.NumPop()
	slot := in.LocalSlot()
	// With shape facts (DESIGN.md §14) a property access needs only
	// object-ness of its receiver: the optimized body carries a shape
	// guard or inline cache for the layout.
	byShape := s.facts != nil && (in.Op == hhbc.OpCGetPropD || in.Op == hhbc.OpSetPropD)

	for _, nd := range needs[in.Op] {
		if byShape && nd.must {
			nd.con = ConSpecific
		}
		met := true
		switch nd.at {
		case atLocal:
			_, met = s.guardLocal(slot, nd.con)
		case atArgs:
			for i := top; i > top-int(in.A); i-- {
				s.needVal(i, nd.con)
			}
		case atRecv:
			met = s.needVal(top-int(in.A), nd.con)
		default:
			met = s.needVal(top-nd.at, nd.con)
		}
		if nd.must && !met {
			return false
		}
	}

	// Operand types the JIT has no code for.
	ops := s.stack[base:]
	switch in.Op {
	case hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul:
		if ops[0].Maybe(types.TObj) || ops[1].Maybe(types.TObj) {
			return false
		}
	case hhbc.OpDiv:
		if !ops[0].SubtypeOf(types.TNum) || !ops[1].SubtypeOf(types.TNum) {
			return false
		}
	case hhbc.OpCGetPropD, hhbc.OpSetPropD:
		if byShape && !ops[0].SubtypeOf(types.TObj) {
			return false
		}
	case hhbc.OpAssertRAStk:
		if d := top - int(in.A); d >= 0 {
			s.stack[d] = hhbc.Refine(s.stack[d], s.unit.DecodeRAT(in.B, in.C))
		}
	}

	local := s.localType(slot)
	push, localOut := hhbc.InstrTypes(s.unit, s.fn, in, ops, local)
	if in.Op == hhbc.OpIncDecL && localOut.IsBottom() {
		return false // non-numeric inc/dec raises: leave it to the interpreter
	}
	if byShape {
		s.widenObjGuard(base)
		if in.Op == hhbc.OpCGetPropD {
			push[0] = s.facts.PropReadType(s.fn.ID, pc, s.unit.Strings[in.A])
		}
	}

	// Origins: a value read from a local the tracelet has not stored to
	// can still have that local's guard strengthened; a cell that is
	// only moved keeps its own.
	var from [2]origin
	switch in.Op {
	case hhbc.OpDup:
		from = [2]origin{s.origins[top], s.origins[top]}
	case hhbc.OpSetL:
		from[0] = s.origins[top]
	case hhbc.OpCGetL2:
		from[1] = s.origins[top]
		fallthrough
	case hhbc.OpCGetL, hhbc.OpPushL:
		readsNull := in.Op != hhbc.OpPushL && local.Maybe(types.TUninit)
		from[0] = origin{Loc{LocLocal, slot}, !s.written[slot] && !readsNull}
	}
	s.stack = append(s.stack[:base], push[:in.NumPush()]...)
	s.origins = append(s.origins[:base], from[:in.NumPush()]...)

	switch {
	case in.Op.WritesLocal():
		s.locals[slot], s.written[slot] = localOut, true
	case slot >= 0 && localOut != local:
		s.locals[slot] = localOut // an assertion or a passed check
	}
	return true
}
