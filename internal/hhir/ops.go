package hhir

import "repro/internal/runtime"

// Opcode enumerates HHIR instructions.
type Opcode int

const (
	Nop Opcode = iota

	// Constants. I64 / Str hold the payload; Dst typed accordingly.
	DefConstInt
	DefConstDbl // I64 holds math.Float64bits
	DefConstBool
	DefConstNull
	DefConstStr // Str holds the (static) string

	// Guards. CheckType refines Args[0]; on kind mismatch it branches to
	// Taken (next retranslation in the chain) passing TakenArgs, or
	// side-exits via Exit.
	CheckType
	// CheckCls: Args[0] obj; I64 = class id; Exit on mismatch.
	CheckCls
	// AssertType: Dst = Args[0] with refined type (no code).
	AssertType

	// Frame memory.
	LdLoc  // I64 = slot
	StLoc  // I64 = slot; Args[0] = value
	LdThis // Dst = $this

	// Reference counting (explicit, so RCE can optimize).
	IncRef // Args[0]
	DecRef // Args[0]

	// Integer / double arithmetic (specialized fast paths).
	AddInt
	SubInt
	MulInt
	AddDbl
	SubDbl
	MulDbl
	DivDbl
	ModInt // Exit: modulo by zero throws
	NegInt
	NegDbl
	// DivNum: Int/Int division, result Int or Dbl; helper. Exit: /0.
	DivNum

	// Comparisons: I64 = CmpCond; Dst Bool.
	CmpInt
	CmpDbl
	CmpStr  // out-of-line string compare
	EqAny   // generic loose ==  (I64: 1 = negate)
	SameAny // generic ===        (I64: 1 = negate)

	// Conversions.
	ConvToBool // specialized on arg type
	ConvToInt
	ConvToDbl
	ConvToStr // allocates unless already Str

	// Generic binary op fallback: I64 = hhbc.Op; helper; may throw.
	BinopGeneric

	// Strings.
	ConcatStr // helper; Args = two or more operands; Dst Str
	// ConcatAppend: Args[0] = the value of a local, the rest the operands
	// appended to it; Dst Str = what the local holds afterwards. It takes
	// over the local's reference to Args[0] — the same box extended in
	// place when nothing else holds it, a new one otherwise — so a StLoc
	// of Dst follows and no DecRef of Args[0].
	ConcatAppend

	// Arrays.
	CountArray     // Args[0] packed/mixed array -> Int (inline load)
	ArrGetPackedI  // Args: arr, intIdx; miss -> Null + notice (helper on slow path)
	ArrGetGeneric  // helper
	ArrSetLocal    // I64 = local slot; Args: key, val; COW helper
	ArrAppendLocal // I64 = local slot; Args: val
	ArrUnsetLocal  // I64 = local slot; Args: key
	AKExistsLocal  // I64 = local slot; Args: key -> Bool
	NewArr         // I64 = capacity hint; Dst mixed array
	NewPackedArr   // Args = elems
	AddElem        // Args: arr, key, val -> Dst arr
	AddNewElem     // Args: arr, val -> Dst arr

	// Iterators (helpers). I64 = iter id; iterator ops are control
	// flow: Taken = loop entry/exit per builder wiring.
	IterInitLocal // I64 = iter id, Str unused, Args none; second imm via I64b? see builder: I64 packs iter<<32|slot
	IterNextK     // I64 = iter id; Taken = loop body
	IterKey
	IterValue
	IterFree

	// Objects.
	NewObj        // Str = class name; helper
	LdPropSlot    // I64 = slot; Args[0] = obj (class-checked)
	StPropSlot    // I64 = slot; Args: obj, val
	LdPropGeneric // Str = prop name; helper
	StPropGeneric // Str = prop name; Args: obj, val; helper
	InstanceOf    // Str = class; Args[0]; Dst Bool

	// Typed object shapes (DESIGN.md §14).
	GuardShape    // Args[0] = obj; I64 = shape id; Exit on mismatch
	LdPropIC      // Str = prop name; Args[0] = obj; shape-guarded inline cache
	StPropIC      // Str = prop name; Args: obj, val; shape-guarded inline cache
	ProfPropShape // I64 = bc pc; Args[0] = obj: record receiver shape (profiling mode)

	// Calls. Str = name; I64 = callee func id (-1 unknown).
	CallFunc     // direct guest call; Args = args
	CallBuiltin  // Str = builtin name
	CallMethodD  // devirtualized: I64 = func id; Args[0] = obj, rest args
	CallMethodC  // common-base/interface dispatch: Str = method, I64 = cache id; Args[0] = obj
	VerifyParam  // I64 = packVerify(func, param index, slot); may throw
	ProfCount    // I64 = profile counter id
	ProfCallSite // I64 = bc pc; Args[0] = obj: record receiver class (profiling mode)

	// Output.
	PrintC // Args[0]

	// Control flow.
	Jmp       // Next (+NextArgs)
	Branch    // Args[0] Bool; Taken/Next (+args)
	SwitchInt // Args[0] Int; I64 = table base; Table = targets, Taken = default
	Ret       // Args[0]; frame teardown in epilogue
	ThrowC    // Args[0] obj; unwinds
	SideExit  // unconditional exit to interpreter at Exit.BCOff
	ReqBind   // region exit: continue at bytecode pc I64 (bind/translate)
	EndInline // marker: inlined callee finished; Args[0] = return value

	opcodeCount
)

// CmpCond values for CmpInt/CmpDbl/CmpStr's I64.
const (
	CondLT = int64(runtime.CondLT)
	CondLE = int64(runtime.CondLE)
	CondGT = int64(runtime.CondGT)
	CondGE = int64(runtime.CondGE)
	CondEQ = int64(runtime.CondEQ)
	CondNE = int64(runtime.CondNE)
)

// opFlags state what an instruction does, once, for every pass that
// has to know (DESIGN.md §6, "HHIR instruction table"). A pass reads
// them through the methods below and keeps no opcode list of its own.
type opFlags uint16

const (
	fPure       opFlags = 1 << iota // no side effect, no Exit: DCE drops it when unused, GVN numbers it
	fTerm                           // ends its block
	fI64                            // the I64 immediate means something even when zero (printer)
	fOwned                          // the result arrives owning a reference; RCE's bounds on the operands are void after it
	fFresh                          // the result is a new allocation: it aliases nothing defined before it
	fConsumes                       // releases each operand itself; no DecRef follows
	fReleases                       // may drop some reference to zero: a destructor runs where the unit declares one (MayReenter)
	fGuest                          // runs guest code outright
	fEscapes                        // an operand, or the whole frame, becomes visible outside the translation: no IncRef sinks past it
	fStoresSlot                     // writes Args[0] to frame slot I64 (SlotEffect)
	fKillsSlot                      // writes frame slot I64 with something the IR does not name (SlotEffect)
	fCOW                            // mutates an array operand, or the array in slot I64, in place when nothing else holds it
	fCOWStr                         // the same for a string operand: appends to it in place when nothing else holds it
	fStoresProp                     // stores a property by name, which may add one and so change the receiver's shape
)

// opTable has one row per opcode. Where the per-pass lists it replaced
// disagreed, the row keeps what they said and a comment names the
// disagreement: a flag changes together with the test that needs it.
var opTable = [opcodeCount]struct {
	name  string
	flags opFlags
}{
	Nop: {"Nop", 0},

	DefConstInt: {"DefConstInt", fPure}, DefConstDbl: {"DefConstDbl", fPure},
	DefConstBool: {"DefConstBool", fPure}, DefConstNull: {"DefConstNull", fPure},
	DefConstStr: {"DefConstStr", fPure},

	CheckType: {"CheckType", 0}, CheckCls: {"CheckCls", fI64}, AssertType: {"AssertType", fPure},

	LdLoc: {"LdLoc", fI64}, StLoc: {"StLoc", fI64 | fStoresSlot}, LdThis: {"LdThis", fPure},

	IncRef: {"IncRef", 0}, DecRef: {"DecRef", fReleases},

	AddInt: {"AddInt", fPure}, SubInt: {"SubInt", fPure}, MulInt: {"MulInt", fPure},
	AddDbl: {"AddDbl", fPure}, SubDbl: {"SubDbl", fPure}, MulDbl: {"MulDbl", fPure},
	DivDbl: {"DivDbl", fPure}, NegInt: {"NegInt", fPure}, NegDbl: {"NegDbl", fPure},
	ModInt: {"ModInt", 0}, DivNum: {"DivNum", 0},

	CmpInt: {"CmpInt", fPure | fI64}, CmpDbl: {"CmpDbl", fPure | fI64}, CmpStr: {"CmpStr", fPure | fI64},
	EqAny: {"EqAny", 0}, SameAny: {"SameAny", 0},

	ConvToBool: {"ConvToBool", fPure}, ConvToInt: {"ConvToInt", fPure}, ConvToDbl: {"ConvToDbl", fPure},
	// Listed fresh although it hands back its operand (with a new
	// reference) when that is a string already.
	ConvToStr: {"ConvToStr", fOwned | fFresh},

	// The old shape-fact list had it among the ops that run guest code.
	// It runs none but the destructors its releases reach; fGuest stays
	// until dropping it is measured on a unit without destructors.
	BinopGeneric: {"BinopGeneric", fOwned | fConsumes | fReleases | fGuest},

	ConcatStr: {"ConcatStr", fOwned | fFresh},
	// Not fresh: the result is Args[0]'s box when that was extended in
	// place. fCOWStr, because it reads the count to decide, exactly as
	// ArrSetLocal does for fCOW: without it an IncRef of a live alias
	// sinks past and the alias sees the appended bytes (core's
	// TestModesAgreeAppendInPlace, "borrowed alias"). A non-string it
	// replaces is released, destructor and all.
	ConcatAppend: {"ConcatAppend", fOwned | fCOWStr | fReleases},

	CountArray: {"CountArray", fPure},
	// Its result is owned too (the machine IncRefs the element); RCE's
	// list never said so, which only costs it a lower bound.
	ArrGetPackedI:  {"ArrGetPackedI", 0},
	ArrGetGeneric:  {"ArrGetGeneric", fOwned},
	ArrSetLocal:    {"ArrSetLocal", fI64 | fKillsSlot | fCOW | fReleases}, // the element it overwrites
	ArrAppendLocal: {"ArrAppendLocal", fI64 | fKillsSlot | fCOW},
	ArrUnsetLocal:  {"ArrUnsetLocal", fI64 | fKillsSlot | fCOW | fReleases},
	AKExistsLocal:  {"AKExistsLocal", fI64},
	NewArr:         {"NewArr", fI64 | fOwned | fFresh},
	NewPackedArr:   {"NewPackedArr", fOwned | fFresh},
	AddElem:        {"AddElem", fOwned | fCOW | fReleases}, // a repeated key releases the earlier value
	AddNewElem:     {"AddNewElem", fOwned | fCOW},

	// Escapes: the iterator takes a reference to the array in the slot.
	IterInitLocal: {"IterInitLocal", fTerm | fI64 | fEscapes},
	IterNextK:     {"IterNextK", fTerm | fI64},
	IterKey:       {"IterKey", fI64 | fOwned},
	IterValue:     {"IterValue", fI64 | fOwned},
	IterFree:      {"IterFree", fI64 | fReleases}, // the iterator's reference may be the array's last

	NewObj:     {"NewObj", fOwned | fFresh},
	LdPropSlot: {"LdPropSlot", fI64},
	// The store keeps the receiver's layout (the builder emits it only
	// for a value of the slot's kind); releasing the old value may not.
	StPropSlot:    {"StPropSlot", fI64 | fEscapes | fReleases},
	LdPropGeneric: {"LdPropGeneric", fOwned},
	StPropGeneric: {"StPropGeneric", fEscapes | fReleases | fStoresProp},
	InstanceOf:    {"InstanceOf", fPure},

	GuardShape: {"GuardShape", fI64},
	// Owned like LdPropGeneric's, and not on RCE's list either.
	LdPropIC: {"LdPropIC", 0},
	// Stores its value like StPropSlot and StPropGeneric, yet RCE's escape
	// list left it out: an IncRef of the stored value may sink past it.
	StPropIC:      {"StPropIC", fReleases | fStoresProp},
	ProfPropShape: {"ProfPropShape", fI64},

	CallFunc:     {"CallFunc", fOwned | fGuest | fEscapes},
	CallBuiltin:  {"CallBuiltin", fOwned | fGuest | fEscapes},
	CallMethodD:  {"CallMethodD", fI64 | fOwned | fGuest | fEscapes},
	CallMethodC:  {"CallMethodC", fOwned | fGuest | fEscapes},
	VerifyParam:  {"VerifyParam", fI64 | fEscapes | fKillsSlot}, // a float hint turns the slot's Int into a Dbl
	ProfCount:    {"ProfCount", fI64},
	ProfCallSite: {"ProfCallSite", 0},

	PrintC: {"PrintC", fEscapes},

	Jmp: {"Jmp", fTerm}, Branch: {"Branch", fTerm}, SwitchInt: {"SwitchInt", fTerm},
	Ret:       {"Ret", fTerm | fEscapes | fReleases},
	ThrowC:    {"ThrowC", fTerm | fEscapes},
	SideExit:  {"SideExit", fTerm | fEscapes},
	ReqBind:   {"ReqBind", fTerm | fI64 | fEscapes},
	EndInline: {"EndInline", fEscapes},
}

// OpcodeCount is the number of opcodes, for tables indexed by Opcode.
const OpcodeCount = int(opcodeCount)

func (o Opcode) has(f opFlags) bool { return opTable[o].flags&f != 0 }

func (o Opcode) String() string {
	if o < 0 || o >= opcodeCount {
		return "Opcode?"
	}
	return opTable[o].name
}

// IsPure reports whether the instruction has no side effects and can
// be eliminated when its result is unused, or value-numbered.
func (o Opcode) IsPure() bool { return o.has(fPure) }

// IsTerminator reports control-flow enders.
func (o Opcode) IsTerminator() bool { return o.has(fTerm) }

// SlotEffect is what an instruction other than a LdLoc does to a frame
// slot.
type SlotEffect uint8

const (
	SlotNone  SlotEffect = iota
	SlotStore            // the slot now holds Args[0]
	SlotKill             // the slot holds something the IR does not name
)

// SlotEffect returns the instruction's effect on the frame and the slot
// it falls on.
func (in *Instr) SlotEffect() (SlotEffect, int64) {
	switch {
	case in.Op.has(fStoresSlot):
		return SlotStore, in.I64
	case in.Op == VerifyParam:
		_, _, slot := UnpackVerify(in.I64)
		return SlotKill, int64(slot)
	case in.Op.has(fKillsSlot):
		return SlotKill, in.I64
	}
	return SlotNone, 0
}

// MayReenter reports whether guest code may run before the instruction
// completes: it calls some, or it may release the last reference to an
// object of a class with a destructor. Whatever a pass knows about the
// heap — an object's shape, a property's value — is void afterwards.
func (in *Instr) MayReenter(u *Unit) bool {
	return in.Op.has(fGuest) || u.HasDtor && in.Op.has(fReleases)
}
