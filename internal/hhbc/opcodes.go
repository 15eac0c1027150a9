// Package hhbc defines the HipHop-style stack bytecode that is the
// interface between the ahead-of-time pipeline (parser → emitter →
// hhbbc) and the runtime engines (interpreter and JIT). Like HHBC it
// is untyped, stack-based, and carries type information only through
// AssertRATL/AssertRAStk assertion instructions.
package hhbc

// Op is a bytecode opcode.
type Op uint8

const (
	OpNop Op = iota

	// Constants: push a literal.
	OpInt    // A = immediate int64 (via unit int pool index)
	OpDouble // A = double pool index
	OpString // A = string pool index
	OpTrue
	OpFalse
	OpNull

	// Stack manipulation.
	OpPopC // pop and decref
	OpDup  // duplicate top (increfs)

	// Locals. A = local slot.
	OpCGetL   // push local value (incref)
	OpCGetL2  // push local value under the top of stack (incref)
	OpPopL    // pop into local (decref old)
	OpSetL    // store top into local without popping (incref value, decref old)
	OpPushL   // move local onto stack, leaving local Uninit (no refcount ops)
	OpIncDecL // A = local, B = IncDecOp; pushes pre/post value
	OpIsTypeL // A = local, B = type kind bits; pushes bool
	OpUnsetL  // A = local; decref, set Uninit

	// Type assertions (from hhbbc static analysis). A = local or stack
	// depth, B = encoded type. No runtime effect; consumed by the JIT.
	OpAssertRATL
	OpAssertRAStk

	// Arithmetic / string.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcatN // A = n >= 2: pop n operands, push their concatenation (one allocation)
	OpConcatL // A = n >= 1, B = local: local .= the n operands popped; reads the local after them, pushes nothing
	OpNeg

	// Comparison / logic.
	OpGt
	OpGte
	OpLt
	OpLte
	OpEq
	OpNeq
	OpSame
	OpNSame
	OpNot
	OpCastBool
	OpCastInt
	OpCastDouble
	OpCastString

	// Control flow. A = target pc.
	OpJmp
	OpJmpZ
	OpJmpNZ
	OpSwitch // A = switch-table index (dense int switch); pops int
	OpRetC   // return top of stack
	OpThrow  // throw top of stack (must be object)
	OpCatch  // at handler entry: pushes the caught exception
	OpFatal  // A = string pool index: raise runtime fatal

	// Arrays.
	OpNewArray       // A = capacity hint (the literal's entry count): push empty mixed array
	OpNewPackedArray // A = n: pop n elems, push packed array
	OpAddElemC       // pop val, key, arr; push arr with arr[key]=val
	OpAddNewElemC    // pop val, arr; push arr with arr[]=val
	OpArrIdx         // pop key, arr(value); push elem (incref); decrefs arr+key
	OpArrGetL        // A = local holding array; pop key; push elem (incref)
	OpArrSetL        // A = local; pop key (top) then val; local[key]=val with COW
	OpArrAppendL     // A = local; pop val; local[] = val with COW
	OpArrUnsetL      // A = local; pop key; unset(local[key]) with COW
	OpAKExistsL      // A = local; pop key; push bool

	// Iterators. A = iterator slot, B = jump target.
	OpIterInitL // iterate local array (A=iter, B=exit target, C=local)
	OpIterNext  // advance; jump to B (loop body head) if more
	OpIterKey   // push current key (A = iter)
	OpIterValue // push current value (A = iter, increfs)
	OpIterFree  // release iterator (A = iter)

	// Functions and methods.
	OpFCallD          // A = nargs, B = func-name pool index: pop args, push result
	OpFCallBuiltin    // A = nargs, B = name pool index
	OpFCallObjMethodD // A = nargs, B = method-name pool index: pop args then obj
	OpNewObjD         // A = class-name pool index: push new object (ctor called by emitter sequence)
	OpThis            // push $this (incref)
	OpCGetPropD       // A = prop-name pool index: pop obj, push prop (incref)
	OpSetPropD        // A = prop-name pool index: pop val, obj; set prop; push val (incref)
	OpInstanceOfD     // A = class-name pool index: pop cell, push bool
	OpVerifyParamType // A = param index: shallow runtime type-hint check

	// Output.
	OpPrint // pop, write to request output, push Int(1)

	// Profiling support (inserted by the JIT, never by the emitter).
	OpIncProfCounter // A = counter id

	opCount
)

// ImmKind says what an instruction immediate (A, B or C) denotes. The
// verifier's range checks, the disassembler, hhbbc's read sets and
// jump remapping, and the successor walk are all driven by it.
type ImmKind uint8

const (
	ImmNone     ImmKind = iota
	ImmInt              // index into Unit.Ints
	ImmDbl              // index into Unit.Doubles
	ImmStr              // index into Unit.Strings
	ImmLocal            // local slot
	ImmIter             // iterator slot
	ImmTarget           // jump target pc
	ImmSwitch           // index into Func.Switches
	ImmParam            // parameter index (also that parameter's local slot)
	ImmCount            // operand count or stack depth
	ImmCounter          // profile counter id
	ImmIncDec           // IncDecOp
	ImmKinds            // types.Kind bitset
	ImmRAT              // EncodeRAT's kind word; its class word is the next immediate
	ImmRATClass         // EncodeRAT's class word: string index + 1, 0 for none
)

// Pop counts that depend on the A immediate.
const (
	popsA  = -1 // A cells
	popsA1 = -2 // A cells and the receiver under them
)

type opFlags uint8

const (
	noFall      opFlags = 1 << iota // control never reaches pc+1
	readsLocal                      // the value of its local on entry matters to it
	writesLocal                     // it stores to its local
)

// opInfo is one row of the opcode table: everything about an opcode
// that does not depend on types.
type opInfo struct {
	name         string
	pops, pushes int8
	flags        opFlags
	imm          [3]ImmKind
}

func row(name string, pops, pushes int8, flags opFlags, imm ...ImmKind) opInfo {
	r := opInfo{name: name, pops: pops, pushes: pushes, flags: flags}
	copy(r.imm[:], imm)
	return r
}

// opTable is the static definition of HHBC. Dup, CGetL2 and SetL are
// stated as pop-then-push of the cell they inspect, so "pops" is also
// the number of operands the typing rules read.
var opTable = [opCount]opInfo{
	OpNop: row("Nop", 0, 0, 0),

	OpInt:    row("Int", 0, 1, 0, ImmInt),
	OpDouble: row("Double", 0, 1, 0, ImmDbl),
	OpString: row("String", 0, 1, 0, ImmStr),
	OpTrue:   row("True", 0, 1, 0),
	OpFalse:  row("False", 0, 1, 0),
	OpNull:   row("Null", 0, 1, 0),

	OpPopC: row("PopC", 1, 0, 0),
	OpDup:  row("Dup", 1, 2, 0),

	OpCGetL:   row("CGetL", 0, 1, readsLocal, ImmLocal),
	OpCGetL2:  row("CGetL2", 1, 2, readsLocal, ImmLocal),
	OpPopL:    row("PopL", 1, 0, writesLocal, ImmLocal),
	OpSetL:    row("SetL", 1, 1, writesLocal, ImmLocal),
	OpPushL:   row("PushL", 0, 1, readsLocal|writesLocal, ImmLocal),
	OpIncDecL: row("IncDecL", 0, 1, readsLocal|writesLocal, ImmLocal, ImmIncDec),
	OpIsTypeL: row("IsTypeL", 0, 1, readsLocal, ImmLocal, ImmKinds),
	OpUnsetL:  row("UnsetL", 0, 0, writesLocal, ImmLocal),

	OpAssertRATL:  row("AssertRATL", 0, 0, 0, ImmLocal, ImmRAT, ImmRATClass),
	OpAssertRAStk: row("AssertRAStk", 0, 0, 0, ImmCount, ImmRAT, ImmRATClass),

	OpAdd:     row("Add", 2, 1, 0),
	OpSub:     row("Sub", 2, 1, 0),
	OpMul:     row("Mul", 2, 1, 0),
	OpDiv:     row("Div", 2, 1, 0),
	OpMod:     row("Mod", 2, 1, 0),
	OpConcatN: row("ConcatN", popsA, 1, 0, ImmCount),
	OpConcatL: row("ConcatL", popsA, 0, readsLocal|writesLocal, ImmCount, ImmLocal),
	OpNeg:     row("Neg", 1, 1, 0),

	OpGt:         row("Gt", 2, 1, 0),
	OpGte:        row("Gte", 2, 1, 0),
	OpLt:         row("Lt", 2, 1, 0),
	OpLte:        row("Lte", 2, 1, 0),
	OpEq:         row("Eq", 2, 1, 0),
	OpNeq:        row("Neq", 2, 1, 0),
	OpSame:       row("Same", 2, 1, 0),
	OpNSame:      row("NSame", 2, 1, 0),
	OpNot:        row("Not", 1, 1, 0),
	OpCastBool:   row("CastBool", 1, 1, 0),
	OpCastInt:    row("CastInt", 1, 1, 0),
	OpCastDouble: row("CastDouble", 1, 1, 0),
	OpCastString: row("CastString", 1, 1, 0),

	OpJmp:    row("Jmp", 0, 0, noFall, ImmTarget),
	OpJmpZ:   row("JmpZ", 1, 0, 0, ImmTarget),
	OpJmpNZ:  row("JmpNZ", 1, 0, 0, ImmTarget),
	OpSwitch: row("Switch", 1, 0, noFall, ImmSwitch),
	OpRetC:   row("RetC", 1, 0, noFall),
	OpThrow:  row("Throw", 1, 0, noFall),
	OpCatch:  row("Catch", 0, 1, 0),
	OpFatal:  row("Fatal", 0, 0, noFall, ImmStr),

	OpNewArray:       row("NewArray", 0, 1, 0, ImmCount),
	OpNewPackedArray: row("NewPackedArray", popsA, 1, 0, ImmCount),
	OpAddElemC:       row("AddElemC", 3, 1, 0),
	OpAddNewElemC:    row("AddNewElemC", 2, 1, 0),
	OpArrIdx:         row("ArrIdx", 2, 1, 0),
	OpArrGetL:        row("ArrGetL", 1, 1, readsLocal, ImmLocal),
	OpArrSetL:        row("ArrSetL", 2, 0, readsLocal|writesLocal, ImmLocal),
	OpArrAppendL:     row("ArrAppendL", 1, 0, readsLocal|writesLocal, ImmLocal),
	OpArrUnsetL:      row("ArrUnsetL", 1, 0, readsLocal|writesLocal, ImmLocal),
	OpAKExistsL:      row("AKExistsL", 1, 1, readsLocal, ImmLocal),

	OpIterInitL: row("IterInitL", 0, 0, readsLocal, ImmIter, ImmTarget, ImmLocal),
	OpIterNext:  row("IterNext", 0, 0, 0, ImmIter, ImmTarget),
	OpIterKey:   row("IterKey", 0, 1, 0, ImmIter),
	OpIterValue: row("IterValue", 0, 1, 0, ImmIter),
	OpIterFree:  row("IterFree", 0, 0, 0, ImmIter),

	OpFCallD:          row("FCallD", popsA, 1, 0, ImmCount, ImmStr),
	OpFCallBuiltin:    row("FCallBuiltin", popsA, 1, 0, ImmCount, ImmStr),
	OpFCallObjMethodD: row("FCallObjMethodD", popsA1, 1, 0, ImmCount, ImmStr),
	OpNewObjD:         row("NewObjD", 0, 1, 0, ImmStr),
	OpThis:            row("This", 0, 1, 0),
	OpCGetPropD:       row("CGetPropD", 1, 1, 0, ImmStr),
	OpSetPropD:        row("SetPropD", 2, 1, 0, ImmStr),
	OpInstanceOfD:     row("InstanceOfD", 1, 1, 0, ImmStr),
	OpVerifyParamType: row("VerifyParamType", 0, 0, 0, ImmParam),

	OpPrint: row("Print", 1, 1, 0),

	OpIncProfCounter: row("IncProfCounter", 0, 0, 0, ImmCounter),
}

// badOp stands in for opcodes outside the table (a corrupt unit).
var badOp = opInfo{name: "Op?"}

func (o Op) info() *opInfo {
	if o < opCount {
		return &opTable[o]
	}
	return &badOp
}

func (o Op) String() string { return o.info().name }

// IncDecOp values for OpIncDecL's B immediate.
const (
	PreInc = iota
	PostInc
	PreDec
	PostDec
)

var incDecNames = [...]string{"PreInc", "PostInc", "PreDec", "PostDec"}

// IsUnconditionalExit reports ops after which control never falls
// through.
func (o Op) IsUnconditionalExit() bool { return o.info().flags&noFall != 0 }

// ReadsLocal and WritesLocal say how the op uses the local its
// immediates name (Instr.LocalSlot): whether the local's entry value
// matters to it, and whether it stores a new one. Assertions and
// VerifyParamType do neither; they refine what is known of the slot.
func (o Op) ReadsLocal() bool  { return o.info().flags&readsLocal != 0 }
func (o Op) WritesLocal() bool { return o.info().flags&writesLocal != 0 }

// BinaryOps maps source-level binary operators to the bytecodes that
// implement them. The short-circuit and spaceship operators lower to
// control flow instead, and "." to ConcatN over its whole chain; they
// are not listed.
var BinaryOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv,
	"%": OpMod,
	">": OpGt, ">=": OpGte, "<": OpLt, "<=": OpLte,
	"==": OpEq, "!=": OpNeq, "===": OpSame, "!==": OpNSame,
}
