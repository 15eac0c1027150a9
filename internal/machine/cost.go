// Package machine executes assembled Vasm translations against a
// deterministic cost model. It substitutes for native x86-64
// execution (see DESIGN.md): every compiler stage up to register
// allocation and code placement is real; the machine charges cycles
// per instruction, models an instruction cache and an instruction TLB
// with 4 KiB and 2 MiB pages, and calls runtime helpers natively the
// way HHVM's JITed code calls its C++ helpers.
package machine

import (
	"repro/internal/interp"
	"repro/internal/mcode"
	"repro/internal/vasm"
)

// Meter accumulates simulated cycles; it is shared with the
// interpreter so execution-mode comparisons are apples to apples.
//
// The exec loop writes Cycles at every line head, so a Meter fills a
// cache line of its own: eight bytes would share one with the Meter of
// the worker made next, and two workers would write the same line.
type Meter struct {
	Cycles uint64
	_      [cacheLine - 8]byte
}

// cacheLine is the host's cache-line size in bytes.
const cacheLine = 64

// Charge adds cycles.
func (m *Meter) Charge(n uint64) { m.Cycles += n }

// Instruction base costs (cycles).
func opCost(op vasm.Op) uint64 {
	switch op {
	case vasm.Nop:
		return 0
	case vasm.LdImm, vasm.Copy:
		return 1
	case vasm.LdLoc, vasm.LdStk, vasm.Reload:
		return 3 // L1 load
	case vasm.StLoc, vasm.Spill:
		return 2
	case vasm.GuardKind, vasm.GuardCls, vasm.GuardShape:
		return 2 // cmp+branch, predicted
	case vasm.AddI, vasm.SubI, vasm.NegI, vasm.CmpI:
		return 1
	case vasm.MulI:
		return 3
	case vasm.AddD, vasm.SubD, vasm.NegD, vasm.CmpD:
		return 3
	case vasm.MulD:
		return 4
	case vasm.DivD:
		return 12
	case vasm.ToBool, vasm.ToInt, vasm.ToDbl:
		return 2
	case vasm.IncRef, vasm.DecRef:
		return 3 // check + locked-ish add
	case vasm.ArrCount:
		return 3
	case vasm.ArrGetPkI:
		return 6 // bounds check + load
	case vasm.LdProp, vasm.StProp:
		return 4
	case vasm.LdThis:
		return 2
	case vasm.Helper:
		return 5 // call overhead; helper body charged separately
	case vasm.CallFunc, vasm.CallMethodD:
		return 26 // ActRec setup + frame push + call
	case vasm.CallBuiltin:
		return 14
	case vasm.CallMethodC:
		return 28
	case vasm.CountInc, vasm.ProfCallSite, vasm.ProfPropShape:
		return 12 // shared-counter increment
	case vasm.LdPropIC, vasm.StPropIC:
		return 6 // shape load + cache probe + slot access (hit cost)
	case vasm.Jmp:
		return 1
	case vasm.Jcc:
		return 1
	case vasm.JmpTable:
		return 4 // bounds check + table load + indirect branch
	case vasm.Ret:
		return 10 // epilogue + frame release entry
	case vasm.Exit, vasm.BindJmp:
		return 8
	default:
		return 1
	}
}

// instrCost is opCost extended to superinstructions, whose static
// cost is by definition the sum of their components' — fusion saves
// host dispatch work, never guest cycles.
func instrCost(in *mcode.Instr) uint64 {
	var c uint64
	in.ForEachComponent(func(op vasm.Op) { c += opCost(op) })
	return c
}

// Extra penalty charged when a guard actually fails (pipeline flush +
// exit stub).
const guardFailPenalty = 14

// Helper body costs, matching the work the interpreter charges for
// the same operations (minus its dispatch overhead): base, plus perArg
// for each operand — only the concatenation helpers take any number,
// and cost interp.ConcatCost(len(Args)); HConcatAppend's first operand
// is the local, so it costs what ConcatL n does, a concatenation of
// n+1. A dense array — Helper ops run hundreds of times per request, so
// the lookup sits on the dispatch hot path where a map probe would cost
// more than the helper accounting itself.
var helperCost = [vasm.HelperCount]struct{ base, perArg uint64 }{
	vasm.HConcat:       {interp.ConcatBaseCost, interp.ConcatOperandCost},
	vasm.HConcatAppend: {interp.ConcatBaseCost, interp.ConcatOperandCost},
	vasm.HBinop:        {base: 14}, vasm.HEqAny: {base: 8}, vasm.HSameAny: {base: 8},
	vasm.HDivNum: {base: 10}, vasm.HModInt: {base: 8}, vasm.HToStr: {base: 18}, vasm.HCmpStr: {base: 8},
	vasm.HNewArr: {base: 18}, vasm.HNewPacked: {base: 18}, vasm.HAddElem: {base: 12},
	vasm.HAddNewElem: {base: 10}, vasm.HArrGetGeneric: {base: 10}, vasm.HArrGetPackedMiss: {base: 12},
	vasm.HArrSetLocal: {base: 14}, vasm.HArrAppendLocal: {base: 10}, vasm.HArrUnsetLocal: {base: 12},
	vasm.HAKExistsLocal: {base: 8}, vasm.HIterInit: {base: 12}, vasm.HIterNext: {base: 5},
	vasm.HIterKey: {base: 4}, vasm.HIterValue: {base: 4}, vasm.HIterFree: {base: 3},
	vasm.HNewObj: {base: 22}, vasm.HLdPropGeneric: {base: 10}, vasm.HStPropGeneric: {base: 10},
	vasm.HInstanceOf: {base: 2}, vasm.HVerifyParam: {base: 5}, vasm.HPrint: {base: 14},
	vasm.HThrow: {base: 30}, vasm.HConvToBoolGeneric: {base: 4}, vasm.HConvToIntGeneric: {base: 4},
	vasm.HConvToDblGeneric: {base: 4},
}

// Method-dispatch costs: inline-cache hit vs full method lookup.
// instanceOfWalkCost is the extra cost of a by-name hierarchy walk
// when the bitwise instanceof fast path is unavailable.
const instanceOfWalkCost = 9

const (
	methodCacheHitCost = 4
	methodLookupCost   = 16
	callReturnCost     = 8
)

// Direct-chaining costs: a smashed bind jump is a single direct
// branch into the successor (vs the service-request round-trip
// charged as bindDispatchCost by the VM), plus a per-precondition
// recheck charge for the target's entry guards.
const (
	smashedJumpCost = 2
	chainGuardCost  = 1
)

// Shape-IC dynamic costs, charged on top of the static hit cost: a
// miss walks the shape's slot table and rewrites the cache line; a
// megamorphic probe falls through to the generic helper (call
// overhead + helper body, matching Helper + HLdPropGeneric).
const (
	icMissCost = 12
	icMegaCost = 15
)
