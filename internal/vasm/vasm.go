// Package vasm implements the Virtual Assembly representation: a
// register-based, near-machine IR with an unbounded virtual register
// file. Register allocation (SSA linear scan), jump optimization,
// basic-block layout, and hot/cold splitting happen here (Section
// 5.4), after which the code is placed into the simulated code cache
// and executed by the machine model.
package vasm

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/slab"
	"repro/internal/types"
)

// Reg is a register: virtual before allocation, physical (0 ..
// NumPhysRegs-1) after. Each register holds one guest cell
// (TypedValue), mirroring HHVM's use of a data+type register pair.
type Reg int32

// InvalidReg marks absent operands.
const InvalidReg Reg = -1

// ImmRegBase: an operand at or above it is a constant, not a register:
// ImmReg(k) reads Unit.Imms[k] (DESIGN.md §6 "Constant operands"). A
// constant is part of the instruction that reads it — an int add's,
// subtract's or multiply's imm32, a local store's or a return's
// immediate cell, an entry of an operand list — so no LdImm loads it
// and no register holds it. Only reads take one: nothing writes a
// constant.
const ImmRegBase = Reg(1 << 24)

// ImmReg is the operand that reads constant-pool entry k.
func ImmReg(k int) Reg { return ImmRegBase + Reg(k) }

// IsImm reports whether r is a constant operand (ImmReg).
func (r Reg) IsImm() bool { return r >= ImmRegBase }

// Imm returns the constant-pool index of a constant operand.
func (r Reg) Imm() int { return int(r - ImmRegBase) }

func (r Reg) String() string {
	if r.IsImm() {
		return fmt.Sprintf("c%d", r.Imm())
	}
	return fmt.Sprintf("r%d", int32(r))
}

// NumPhysRegs is the physical cell-register file size.
const NumPhysRegs = 12

// Op enumerates Vasm instructions.
type Op uint8

const (
	Nop Op = iota

	// Data movement.
	LdImm  // D <- constant cell (Imm* fields)
	Copy   // D <- A
	LdLoc  // D <- frame local I64
	StLoc  // frame local I64 <- A
	LdStk  // D <- entry eval-stack slot I64
	Spill  // spill slot I64 <- A
	Reload // D <- spill slot I64

	// Guards: kind/class tests that jump to Target1 (a stub or chain
	// block) on failure.
	GuardKind // fail unless kind(A) within Unit.GuardTypes[Target2]
	GuardCls  // fail unless A is an object of class id I64

	// Arithmetic on cells.
	AddI
	SubI
	MulI
	NegI
	AddD
	SubD
	MulD
	DivD
	NegD
	CmpI // D <- bool(A <cond I64> B)
	CmpD

	// Conversions (inline, type-dispatched on the cell's kind).
	ToBool
	ToInt
	ToDbl

	// Reference counting (inline fast path; DecRef reaching zero
	// calls out to the destructor machinery).
	IncRef
	DecRef

	// Array fast paths.
	ArrCount  // D <- count(A)
	ArrGetPkI // D <- A[B] for packed arrays; Target1 = catch stub on error

	// Object fast paths.
	LdProp // D <- A.props[I64] (+IncRef is separate)
	StProp // A.props[I64] <- B (releases old value)
	LdThis // D <- frame $this

	// Typed object shapes (DESIGN.md §14).
	GuardShape    // fail unless shape(A) has id I64; Target1 = fail stub
	LdPropIC      // D <- A.props[Str] via shape IC (link slot); Target1 = catch stub
	StPropIC      // A.props[Str] <- B via shape IC (link slot); Target1 = catch stub
	ProfPropShape // record receiver shape of A at site I64

	// Out-of-line helper call: I64 = HelperID; Args in order;
	// Target1 = catch stub (-1 = none).
	Helper

	// Guest calls (through the VM dispatcher).
	CallFunc    // I64 = callee func id; Args = args; Str = name
	CallMethodD // I64 = callee func id; Args[0] = receiver
	CallMethodC // Str = method name; I64 = inline-cache site id; Args[0] = receiver
	CallBuiltin // Str = builtin name; I64 = 1-based index into mcode.Code.Builtins once assembled (0 = unresolved)

	// Profiling.
	CountInc     // profile counter I64
	ProfCallSite // record receiver class of Args[0] at site I64

	// Control flow.
	Jmp      // Target1
	Jcc      // if bool(A): Target1 else Target2
	JmpTable // indexed jump: I64 = table index into Unit.Tables; A = int cell
	Ret      // return A (epilogue releases the frame)
	Exit     // side exit / service request; Ex describes resumption
	BindJmp  // region exit to bytecode pc I64; Ex materializes state

	// Superinstructions minted by the post-regalloc fusion pass
	// (Fuse). Each performs the effects of its components (Components)
	// in order — including every component's destination write — so
	// fused code is bit-identical to unfused code. Encoded size and
	// static cost are the sums of the components', so code-cache
	// addresses and the guest cycle ledger are unchanged. None are
	// smashable, and all but IncRefN/DecRefN transfer control.
	LdLocGK // LdLoc(D <- local I64) + GuardKind(D within GuardTypes[Target2], fail ->Target1)
	CmpIJcc // CmpI(D <- A <cond I64&0xff> B) + Jcc(D: Target1/Target2; I64&0x100 = inverted)
	CmpDJcc // CmpD form of CmpIJcc
	IncRefN // IncRef over each reg in Args (run of >= 2)
	DecRefN // DecRef over each reg in Args (run of >= 2)

	opCount
)

// OpCount is the number of vasm opcodes, exported for dispatch and
// attribution tables indexed by Op.
const OpCount = int(opCount)

var opNames = [...]string{
	Nop: "nop", LdImm: "ldimm", Copy: "copy", LdLoc: "ldloc", StLoc: "stloc",
	LdStk: "ldstk", Spill: "spill", Reload: "reload",
	GuardKind: "guardkind", GuardCls: "guardcls",
	AddI: "addi", SubI: "subi", MulI: "muli", NegI: "negi",
	AddD: "addd", SubD: "subd", MulD: "muld", DivD: "divd", NegD: "negd",
	CmpI: "cmpi", CmpD: "cmpd",
	ToBool: "tobool", ToInt: "toint", ToDbl: "todbl",
	IncRef: "incref", DecRef: "decref",
	ArrCount: "arrcount", ArrGetPkI: "arrgetpki",
	LdProp: "ldprop", StProp: "stprop", LdThis: "ldthis",
	GuardShape: "guardshape", LdPropIC: "ldpropic", StPropIC: "stpropic",
	ProfPropShape: "profpropshape",
	Helper:        "helper", CallFunc: "callfunc", CallMethodD: "callmethodd",
	CallMethodC: "callmethodc", CallBuiltin: "callbuiltin",
	CountInc: "countinc", ProfCallSite: "profcallsite",
	Jmp: "jmp", Jcc: "jcc", JmpTable: "jmptable", Ret: "ret", Exit: "exit", BindJmp: "bindjmp",
	LdLocGK: "ldloc+guardkind", CmpIJcc: "cmpi+jcc", CmpDJcc: "cmpd+jcc", IncRefN: "incref*n", DecRefN: "decref*n",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// components lists, per superinstruction, the ops it performs. IncRefN
// and DecRefN perform their one component once per register in Args.
var components = [opCount][]Op{
	LdLocGK: {LdLoc, GuardKind},
	CmpIJcc: {CmpI, Jcc},
	CmpDJcc: {CmpD, Jcc},
	IncRefN: {IncRef},
	DecRefN: {DecRef},
}

// Components returns the ops a superinstruction performs, in order; nil
// for an ordinary op. Fuse mints a superinstruction from the ops its
// row names, and the assembler's sizes and the machine's costs are sums
// over them (ForEachComponent).
func (o Op) Components() []Op { return components[o] }

// fusedFrom returns the superinstruction whose components are exactly
// parts, Nop when there is none.
func fusedFrom(parts ...Op) Op {
	for o := LdLocGK; o < opCount; o++ { // the superinstructions are declared last
		if slices.Equal(components[o], parts) {
			return o
		}
	}
	return Nop
}

// ForEachComponent calls fn with every ordinary op the instruction
// performs: its own, or a superinstruction's components in order (one
// per register for the N-ary forms).
func (in *Instr) ForEachComponent(fn func(Op)) {
	parts := in.Op.Components()
	switch {
	case parts == nil:
		fn(in.Op)
	case len(parts) == 1:
		for range in.Args {
			fn(parts[0])
		}
	default:
		for _, o := range parts {
			fn(o)
		}
	}
}

// HasImmForm reports the ops with an immediate form: one whose A or B
// may be a constant operand (ImmReg), carried in the instruction's
// encoding (DESIGN.md §6 "Constant operands"). The lowering carries a
// constant only on one of these, and the assembler rejects a constant
// A or B on any other.
func (o Op) HasImmForm() bool {
	switch o {
	case AddI, SubI, MulI, StLoc, Ret:
		return true
	}
	return false
}

// Smashable reports whether the instruction is a smash site: a
// cross-translation transfer whose machine code holds a patchable
// jump or call that the runtime can rebind to a direct successor
// (bind jumps, side-exit stubs, and direct guest calls bound to
// callee prologues). Dynamic method calls (CallMethodC) resolve the
// callee per receiver and keep their inline cache instead. Shape ICs
// (LdPropIC/StPropIC) claim a smashable slot too: the machine burns
// the epoch-stamped cache table into the site's link slot, and the
// OptimizeAll republish sweep invalidates it wholesale.
func (o Op) Smashable() bool {
	return o == BindJmp || o == Exit || o == CallFunc || o == CallMethodD ||
		o == LdPropIC || o == StPropIC
}

// ExitInfo describes how to materialize VM state when leaving JITed
// code at this point.
type ExitInfo struct {
	BCOff   int
	IsCatch bool
	// StackRegs hold the eval-stack values bottom-up.
	StackRegs []Reg
	// Inline is set for exits inside partially-inlined code.
	Inline *InlineInfo
}

// InlineInfo mirrors hhir.InlineCtx at the register level. Parent
// chains nested inline frames (innermost first at the exit).
type InlineInfo struct {
	FuncID          int
	LocalsBase      int
	ThisReg         Reg // InvalidReg if none
	RetBCOff        int
	CallerStackRegs []Reg
	Parent          *InlineInfo
}

// Instr is one Vasm instruction.
type Instr struct {
	Op      Op
	D, A, B Reg
	Args    []Reg
	I64     int64
	Str     string
	// Target1/Target2 are block indices within the unit, but for the
	// type guards (GuardKind, LdLocGK) Target2 indexes Unit.GuardTypes
	// (mcode's encoding re-indexes it into mcode.Code.Checks).
	Target1, Target2 int
	Ex               *ExitInfo
}

func (in *Instr) String() string {
	var sb strings.Builder
	if in.D != InvalidReg {
		fmt.Fprintf(&sb, "%s = ", in.D)
	}
	sb.WriteString(in.Op.String())
	if in.A != InvalidReg {
		fmt.Fprintf(&sb, " %s", in.A)
	}
	if in.B != InvalidReg {
		fmt.Fprintf(&sb, " %s", in.B)
	}
	for _, r := range in.Args {
		fmt.Fprintf(&sb, " %s", r)
	}
	if in.I64 != 0 {
		fmt.Fprintf(&sb, " #%d", in.I64)
	}
	if in.Str != "" {
		fmt.Fprintf(&sb, " %q", in.Str)
	}
	switch in.Op {
	case Jmp, GuardKind, GuardCls, GuardShape, LdLocGK:
		fmt.Fprintf(&sb, " ->B%d", in.Target1)
	case Jcc, CmpIJcc, CmpDJcc:
		fmt.Fprintf(&sb, " ->B%d,B%d", in.Target1, in.Target2)
	}
	return sb.String()
}

// ForEachTarget calls fn with every block the instruction can transfer
// control to. It is the one definition of a block edge — liveness and
// layout walk it, and mcode's encoder resolves exactly these fields to
// stream indexes — and it goes by field, not by opcode: a Target1 >= 0
// is an edge whatever the op (a branch target, a guard's fail block, a
// catch stub), Target2 is one for the Jcc family, and a JmpTable
// reaches every entry of its table and the default. An
// instruction without a target must therefore carry Target1 = -1
// (nzInstr), never the zero value. A Jcc-family Target2 and the table
// entries are reported even when out of range, so a caller can reject
// them; liveness and layout skip blocks the unit does not have.
func (in *Instr) ForEachTarget(tables []JumpTable, fn func(block int)) {
	if in.Target1 >= 0 {
		fn(in.Target1)
	}
	switch in.Op {
	case Jcc, CmpIJcc, CmpDJcc:
		fn(in.Target2)
	case JmpTable:
		if in.I64 >= 0 && in.I64 < int64(len(tables)) {
			tbl := &tables[in.I64]
			for _, t := range tbl.Targets {
				fn(t)
			}
			fn(tbl.Default)
		}
	}
}

// ForEachUse calls fn with every register the instruction reads: the
// operands, the call arguments, and — for exits — the registers its
// descriptor materializes into the frame, inline frames included. A
// constant operand (ImmReg) is part of the instruction, not a register,
// and is not reported.
func (in *Instr) ForEachUse(fn func(Reg)) {
	use := func(r Reg) {
		if r != InvalidReg && !r.IsImm() {
			fn(r)
		}
	}
	use(in.A)
	use(in.B)
	for _, r := range in.Args {
		use(r)
	}
	if in.Ex == nil {
		return
	}
	for _, r := range in.Ex.StackRegs {
		use(r)
	}
	for ii := in.Ex.Inline; ii != nil; ii = ii.Parent {
		use(ii.ThisReg)
		for _, r := range ii.CallerStackRegs {
			use(r)
		}
	}
}

// ImmValue carries a constant: what an LdImm loads or a constant
// operand reads, kept in the unit's pool (Unit.Imms) to keep Instr
// compact.
type ImmValue struct {
	Kind types.Kind
	I    int64
	D    float64
	S    string
}

// Block is a Vasm basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Hint   Hint
	Weight uint64
}

// Hint mirrors hhir block hints for hot/cold splitting.
type Hint uint8

const (
	HintNeutral Hint = iota
	HintHot
	HintCold
	// HintStub marks exit stubs (frozen area).
	HintStub
)

// JumpTable is a dense indexed-branch table.
type JumpTable struct {
	Base    int64
	Targets []int // block ids
	Default int
}

// Unit is a Vasm compilation unit.
type Unit struct {
	Blocks []*Block
	// Imms is the constant pool: an LdImm's I64 and a constant
	// operand's ImmReg index it.
	Imms []ImmValue
	// Tables holds JmpTable targets.
	Tables []JumpTable
	// NumVRegs counts virtual registers before allocation.
	NumVRegs int
	// NumSpills counts spill slots after allocation.
	NumSpills int
	// RegOf is the allocation itself: RegOf[v] is where virtual register
	// v lives for its whole lifetime — a physical register, SpillRegBase
	// + its spill slot, or InvalidReg for a vreg no instruction mentions
	// (and for one read before any definition, which fails assembly).
	RegOf []Reg
	// Alloc summarizes what Allocate did.
	Alloc AllocStats
	// ExtFrameSlots is the extended-frame size (inline frames).
	ExtFrameSlots int
	// Layout is the final block order after layout optimization
	// (indices into Blocks).
	Layout []int
	// Entry and Classes are what Assemble compiles the type guards
	// against: the translation's entry preconditions, checked before it
	// is entered, and the linked classes a guard's type may name.
	Entry   []region.Guard
	Classes map[string]*runtime.Class
	// GuardTypes holds the type each GuardKind or LdLocGK tests, indexed
	// by the guard's Target2: kept out of Instr, whose every copy would
	// carry it.
	GuardTypes []types.Type

	mem unitMem
}

// unitMem is the memory a unit recycles from one compile to the next
// (Lower takes units from a pool, Release returns them). What dies with
// a compile is cut from its slabs: every block Lower creates, every
// block's instructions, the stubs' descriptors (Allocate rewrites each
// into one of its own) and operand lists (Assemble copies the ones it
// keeps). The unit's lists and each pass's working state keep their
// backing arrays, which are resized in place and regrown only when too
// small. Nothing a translation keeps points into any of it.
type unitMem struct {
	blocks  slab.Slab[Block]
	instrs  slab.Slab[Instr]
	exits   slab.Slab[ExitInfo]
	inlines slab.Slab[InlineInfo]
	regs    slab.Slab[Reg]
	ints    slab.Slab[int] // jump tables' targets

	// The backing arrays of the unit's Blocks, Imms, Tables, GuardTypes
	// and Layout, for the next compile to append to.
	blockList  []*Block
	imms       []ImmValue
	tables     []JumpTable
	guardTypes []types.Type
	layout     []int

	lower  lowerer
	chains chainState
	alloc  allocator
}

// units holds released units; hhir's pool says why a pool.
var units = sync.Pool{New: func() any { return new(Unit) }}

// Release hands u, made by Lower, back for a later Lower to reuse. No
// part of u may be used afterwards; what outlives the compile is copied
// out of it first (mcode.Assemble copies everything a translation
// keeps). A unit that is never released is simply garbage-collected.
func Release(u *Unit) {
	m := &u.mem
	m.blocks.Reset()
	m.instrs.Reset()
	m.exits.Reset()
	m.inlines.Reset()
	m.regs.Reset()
	m.ints.Reset()
	// Drop what points into other compiles' memory or out of the unit.
	m.blockList = cleared(u.Blocks)
	m.imms = cleared(u.Imms) // constant strings
	m.tables = cleared(u.Tables)
	m.guardTypes = u.GuardTypes[:0]
	m.layout = u.Layout[:0]
	m.lower.release()
	m.alloc.release()
	*u = Unit{mem: *m}
	units.Put(u)
}

// cleared returns list emptied, with every element it held zeroed. A
// unit's lists only grow during a compile, so the elements past its
// length were zeroed by the release that last reached them: a release
// pays for what its compile used, not for the largest compile's.
func cleared[T any](list []T) []T {
	clear(list)
	return list[:0]
}

// Order returns the block order code is emitted in: Layout once it
// ran, the natural order before.
func (u *Unit) Order() []int {
	if u.Layout != nil {
		return u.Layout
	}
	order := make([]int, len(u.Blocks))
	for i := range order {
		order[i] = i
	}
	return order
}

func (u *Unit) String() string {
	var sb strings.Builder
	for _, bi := range u.Order() {
		b := u.Blocks[bi]
		fmt.Fprintf(&sb, "B%d: w=%d hint=%d\n", b.ID, b.Weight, b.Hint)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
		}
	}
	return sb.String()
}
