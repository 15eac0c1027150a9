package mcode

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/runtime"
	"repro/internal/vasm"
)

// Instr is one executable instruction: what the machine runs, with every
// operand decoded when the code is assembled (DESIGN.md §6 "The
// executable encoding"). It holds no Go pointer, so the GC never scans a
// stream, and it is 32 bytes where a vasm.Instr is 88.
//
// Fields by op family:
//
//   - D, A, B are value-file indexes (NoReg for none): the machine
//     registers first, then the spill slots, then the constant slots, so
//     a register access is one index into the activation's values. Spill
//     writes slot D, Reload reads slot A; I64 keeps the slot number. A
//     constant operand (vasm.ImmReg) reads its constant slot, which the
//     activation fills from Consts and nothing writes; Imm marks an
//     instruction whose A or B is one, which sizes its encoding.
//   - T1 is the stream index control moves to — a branch target, a
//     guard's fail block, a catch stub — or -1 for none.
//   - T2 is the Jcc family's fall-through stream index, a type guard's
//     index into Checks, a JmpTable's table number (disassembly only);
//     for every other op the index of its string operand in Consts
//     (Str), -1 for none.
//   - X and N are a window of Regs (operand lists), of JumpTargets
//     (JmpTable: the entries then the default); for Exit and BindJmp X
//     indexes Exits (-1: none).
//   - I64 is the vasm immediate, except that JmpTable keeps its table's
//     base there and a Helper that makes an object of a class linked at
//     assembly carries the class's ClassID as its extra (0: by name).
type Instr struct {
	I64    int64
	T1, T2 int32
	X      int32
	D, A   uint16
	B, N   uint16
	Op     vasm.Op
	Imm    bool
}

// NoReg is the value-file index of an absent register operand.
const NoReg = math.MaxUint16

// NumValues is the size of the value file an activation of c runs on:
// the machine registers, then the spill slots, then the constant slots.
func (c *Code) NumValues() int { return c.ConstBase() + c.NumSlots }

// ConstBase is the value-file index of constant slot 0: constant slot i
// holds Consts[i].
func (c *Code) ConstBase() int { return vasm.TotalMachineRegs + c.NumSpills }

// Exit is an exit descriptor (vasm.ExitInfo) as the machine reads it:
// the eval stack's registers are a window of Regs, the inline frames an
// index into Inlines.
type Exit struct {
	BCOff         int32
	Stack, NStack int32
	// Inline indexes the innermost inline frame the exit materializes,
	// -1 for none.
	Inline  int32
	IsCatch bool
}

// Inline is one inline frame of an exit (vasm.InlineInfo). Parent
// indexes the frame enclosing it, -1 for none.
type Inline struct {
	FuncID, LocalsBase, RetBCOff int32
	// Stack and NStack are the caller's eval stack: a window of Regs.
	Stack, NStack int32
	Parent        int32
	// This is $this's value-file index, NoReg for none.
	This uint16
}

// Args returns the value-file indexes of in's operand list.
func (c *Code) Args(in *Instr) []int32 { return c.Regs[in.X : in.X+int32(in.N)] }

// Str returns the string operand at Consts index k, "" for k = -1.
func (c *Code) Str(k int32) string {
	if k < 0 {
		return ""
	}
	return c.Consts[k].AsStr().Data
}

// Entry returns the stream index execution starts at: block 0's first
// instruction (layout may have placed hotter blocks ahead of it).
func (c *Code) Entry() int { return int(c.entry) }

// usesT2 reports the ops whose T2 is not a string operand.
func usesT2(op vasm.Op) bool {
	switch op {
	case vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc, vasm.GuardKind, vasm.LdLocGK, vasm.JmpTable:
		return true
	}
	return false
}

// exitOp reports the ops whose X indexes Exits.
func exitOp(op vasm.Op) bool { return op == vasm.Exit || op == vasm.BindJmp }

// alwaysTransfers reports the ops that must have a T1.
func alwaysTransfers(op vasm.Op) bool {
	switch op {
	case vasm.Jmp, vasm.GuardKind, vasm.GuardCls, vasm.GuardShape, vasm.LdLocGK,
		vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc:
		return true
	}
	return false
}

// assembler encodes one unit's instructions into the code it fills in.
type assembler struct {
	c *Code
	u *vasm.Unit
	// starts maps vasm block ids to stream indexes (-1: not laid out).
	starts []int32
	// slotOf maps the unit's constants to their constant slots, plus
	// one (0: none yet; equal values share one), and then to their
	// indexes in Consts, plus one.
	slotOf []int32
	// at and op locate the instruction being encoded, for errors.
	at int
	op vasm.Op
	// err receives the first error found. It lives outside the
	// assembler so that returning it does not leak the code to the heap.
	err *error
}

// fail records the first error found.
func (a *assembler) fail(format string, args ...any) {
	if *a.err == nil {
		*a.err = &AssembleError{Index: a.at, Op: a.op, Reason: fmt.Sprintf(format, args...)}
	}
}

// encode returns the executable form of in, the stream's instruction at.
func (a *assembler) encode(at int, in *vasm.Instr) Instr {
	a.at, a.op = at, in.Op
	e := Instr{Op: in.Op, I64: in.I64, D: a.dst(in.D), A: a.reg(in.A), B: a.reg(in.B),
		T1: -1, T2: -1, X: int32(len(a.c.Regs)), Imm: in.A.IsImm() || in.B.IsImm()}
	if e.Imm && (!in.Op.HasImmForm() || in.A.IsImm() && in.B.IsImm()) {
		a.fail("constant operands %s, %s: %s has no such immediate form", in.A, in.B, in.Op)
	}
	// A Target1 >= 0 is an edge whatever the op (vasm.ForEachTarget); the
	// ops that always transfer must have one.
	if in.Target1 >= 0 || alwaysTransfers(in.Op) {
		e.T1 = a.block(in.Target1)
	}
	switch in.Op {
	case vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc:
		e.T2 = a.block(in.Target2)
	case vasm.GuardKind, vasm.LdLocGK:
		e.T2 = a.check(in.Target2)
	case vasm.LdImm:
		a.imm(in.I64)
	case vasm.Spill:
		e.D = a.slot(in.I64)
	case vasm.Reload:
		e.A = a.slot(in.I64)
	case vasm.JmpTable:
		tbl := &a.u.Tables[in.I64] // in range: sizes.add checked
		e.I64, e.T2 = tbl.Base, int32(in.I64)
		e.X, e.N = int32(len(a.c.JumpTargets)), uint16(len(tbl.Targets)+1)
		for _, t := range tbl.Targets {
			a.c.JumpTargets = append(a.c.JumpTargets, a.block(t))
		}
		a.c.JumpTargets = append(a.c.JumpTargets, a.block(tbl.Default))
	case vasm.CallBuiltin:
		e.I64 = a.builtin(in.Str)
	case vasm.Helper:
		if hid, _ := vasm.UnpackHelper(in.I64); hid == vasm.HNewObj {
			if cls, ok := a.u.Classes[in.Str]; ok && cls.ClassID > 0 {
				e.I64 = vasm.PackHelper(hid, int64(cls.ClassID))
			}
		}
	}
	if in.Str != "" {
		if usesT2(in.Op) {
			a.fail("string operand %q on an op whose T2 is taken", in.Str)
		} else {
			e.T2 = a.str(in.Str)
		}
	}
	switch {
	case exitOp(in.Op):
		e.X = -1
		if len(in.Args) > 0 {
			a.fail("operand list on an exit")
		}
		if in.Ex != nil {
			e.X = a.exit(in.Ex)
		}
	case in.Ex != nil:
		a.fail("exit descriptor on a %s", in.Op)
	case len(in.Args) > 0:
		if in.Op == vasm.JmpTable {
			a.fail("operand list on a jump table")
		}
		e.X = a.regs(in.Args)
		e.N = uint16(len(in.Args)) // fits: sizes.add checked
	}
	return e
}

// reg returns r's value-file index: a machine register is its own, spill
// slot s is TotalMachineRegs+s, and a constant is ConstBase() plus its
// slot, which its first operand gives it.
func (a *assembler) reg(r vasm.Reg) uint16 {
	switch {
	case r == vasm.InvalidReg:
		return NoReg
	case r >= 0 && r < vasm.TotalMachineRegs:
		return uint16(r)
	case r.IsImm():
		k := r.Imm()
		if k >= len(a.u.Imms) {
			a.fail("constant c%d out of range (%d imms)", k, len(a.u.Imms))
			return NoReg
		}
		if a.slotOf[k] == 0 {
			a.slotOf[k] = a.constSlot(constValue(a.u.Imms[k]))
		}
		if v := a.c.ConstBase() + int(a.slotOf[k]-1); v < NoReg {
			return uint16(v)
		}
		a.fail("constant c%d is past the value file's 16-bit index", k)
		return NoReg
	case r >= vasm.SpillRegBase && int(r-vasm.SpillRegBase) < a.c.NumSpills:
		if v := vasm.TotalMachineRegs + int(r-vasm.SpillRegBase); v < NoReg {
			return uint16(v)
		}
		a.fail("r%d: spill slot %d is past the value file's 16-bit index", r, r-vasm.SpillRegBase)
		return NoReg
	}
	a.fail("r%d is neither a machine register nor one of %d spill slots (read before it is defined, or never allocated)", r, a.c.NumSpills)
	return NoReg
}

// constSlot returns the constant slot holding v, plus one, giving v the
// next slot when no slot holds an equal value yet: constants are pooled
// per definition, so a unit may carry one value many times, and each
// slot costs a copy on every entry and chained transfer (bindSpace).
// Equal is equal as a runtime.Value, which keeps 0.0 and -0.0 apart.
func (a *assembler) constSlot(v runtime.Value) int32 {
	slots := a.c.Consts[:a.c.NumSlots]
	if i := slices.Index(slots, v); i >= 0 {
		return int32(i + 1)
	}
	a.c.Consts[a.c.NumSlots] = v
	a.c.NumSlots++
	return int32(a.c.NumSlots)
}

// dst returns the value-file index of the register r an instruction
// writes: never a constant slot.
func (a *assembler) dst(r vasm.Reg) uint16 {
	if r.IsImm() {
		a.fail("writes constant c%d: a constant slot is read-only", r.Imm())
		return NoReg
	}
	return a.reg(r)
}

// regOf is reg's inverse.
func (c *Code) regOf(v uint16) vasm.Reg {
	switch {
	case v == NoReg:
		return vasm.InvalidReg
	case v < vasm.TotalMachineRegs:
		return vasm.Reg(v)
	case int(v) >= c.ConstBase():
		return vasm.ImmReg(int(v) - c.ConstBase())
	}
	return vasm.SpillRegBase + vasm.Reg(v-vasm.TotalMachineRegs)
}

// slot returns spill slot s's value-file index.
func (a *assembler) slot(s int64) uint16 {
	if s < 0 || s >= int64(a.c.NumSpills) {
		a.fail("spill slot %d out of range (%d slots)", s, a.c.NumSpills)
		return NoReg
	}
	return a.reg(vasm.SpillRegBase + vasm.Reg(s))
}

// regs appends a register list to Regs and returns where it starts.
func (a *assembler) regs(list []vasm.Reg) int32 {
	x := int32(len(a.c.Regs))
	for _, r := range list {
		a.c.Regs = append(a.c.Regs, int32(a.reg(r)))
	}
	return x
}

// block returns the stream index vasm block b starts at.
func (a *assembler) block(b int) int32 {
	if b < 0 || b >= len(a.starts) || a.starts[b] < 0 {
		a.fail("target B%d is not a laid-out block (%d blocks)", b, len(a.starts))
		return -1
	}
	return a.starts[b]
}

// check compiles guard type t and returns its index in Checks.
func (a *assembler) check(t int) int32 {
	if t < 0 || t >= len(a.u.GuardTypes) {
		a.fail("guard type #%d out of range (%d guard types)", t, len(a.u.GuardTypes))
		return -1
	}
	a.c.Checks = append(a.c.Checks, runtime.NewCheck(a.u.GuardTypes[t], a.u.Classes))
	return int32(len(a.c.Checks) - 1)
}

func (a *assembler) imm(idx int64) {
	if idx < 0 || idx >= int64(len(a.u.Imms)) {
		a.fail("imm #%d out of range (%d imms)", idx, len(a.u.Imms))
	}
}

// str returns the Consts index of string operand s.
func (a *assembler) str(s string) int32 {
	a.c.Consts = append(a.c.Consts, runtime.StrV(runtime.InternStr(s)))
	return int32(len(a.c.Consts) - 1)
}

// builtin binds a CallBuiltin's name: its 1-based index in Builtins, 0
// when no native has it.
func (a *assembler) builtin(name string) int64 {
	b, ok := runtime.LookupBuiltin(name)
	if !ok {
		return 0
	}
	idx := slices.Index(a.c.Builtins, b)
	if idx < 0 {
		idx = len(a.c.Builtins)
		a.c.Builtins = append(a.c.Builtins, b)
	}
	return int64(idx + 1)
}

// exit appends ex and its inline frames, innermost first, and returns
// its index in Exits.
func (a *assembler) exit(ex *vasm.ExitInfo) int32 {
	x := Exit{BCOff: a.i32(ex.BCOff), IsCatch: ex.IsCatch, Inline: -1,
		Stack: a.regs(ex.StackRegs), NStack: int32(len(ex.StackRegs))}
	for ii := ex.Inline; ii != nil; ii = ii.Parent {
		k := int32(len(a.c.Inlines))
		if x.Inline < 0 {
			x.Inline = k
		}
		fr := Inline{FuncID: a.i32(ii.FuncID), LocalsBase: a.i32(ii.LocalsBase), RetBCOff: a.i32(ii.RetBCOff),
			Stack: a.regs(ii.CallerStackRegs), NStack: int32(len(ii.CallerStackRegs)),
			Parent: -1, This: a.reg(ii.ThisReg)}
		if ii.Parent != nil {
			fr.Parent = k + 1
		}
		a.c.Inlines = append(a.c.Inlines, fr)
	}
	a.c.Exits = append(a.c.Exits, x)
	return int32(len(a.c.Exits) - 1)
}

// i32 narrows a descriptor field.
func (a *assembler) i32(v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		a.fail("%d does not fit 32 bits", v)
	}
	return int32(v)
}

// Decode returns instruction i as the vasm.Instr it was assembled from,
// with its operands as assembly resolved them: targets are stream
// indexes, a type guard's Target2 is its index in Checks, a CallBuiltin's
// I64 its binding (Code.Builtins), a constant operand vasm.ImmReg(i) and
// an LdImm's I64 the constant's index i in Consts. It is the stream's
// one decoder, for tests and disassembly; the machine reads Instr
// directly.
func (c *Code) Decode(i int) vasm.Instr {
	e := &c.Instrs[i]
	in := vasm.Instr{Op: e.Op, I64: e.I64, D: c.regOf(e.D), A: c.regOf(e.A), B: c.regOf(e.B),
		Target1: int(e.T1), Target2: -1}
	switch e.Op {
	case vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc, vasm.GuardKind, vasm.LdLocGK:
		in.Target2 = int(e.T2)
	case vasm.JmpTable:
		in.I64 = int64(e.T2)
	default:
		if e.T2 >= 0 {
			in.Str = c.Str(e.T2)
		}
	}
	switch e.Op {
	case vasm.Spill:
		in.D = vasm.InvalidReg
	case vasm.Reload:
		in.A = vasm.InvalidReg
	case vasm.Helper:
		if hid, _ := vasm.UnpackHelper(e.I64); hid == vasm.HNewObj {
			in.I64 = vasm.PackHelper(hid, 0)
		}
	}
	switch {
	case exitOp(e.Op):
		if e.X >= 0 {
			in.Ex = c.decodeExit(&c.Exits[e.X])
		}
	case e.Op != vasm.JmpTable && e.N > 0:
		in.Args = c.decodeRegs(e.X, int32(e.N))
	}
	return in
}

// Table returns the jump table of the JmpTable at stream index i, its
// targets as stream indexes.
func (c *Code) Table(i int) vasm.JumpTable {
	e := &c.Instrs[i]
	w := c.JumpTargets[e.X : e.X+int32(e.N)]
	tbl := vasm.JumpTable{Base: e.I64, Default: int(w[len(w)-1])}
	for _, t := range w[:len(w)-1] {
		tbl.Targets = append(tbl.Targets, int(t))
	}
	return tbl
}

func (c *Code) decodeRegs(x, n int32) []vasm.Reg {
	if n == 0 {
		return nil
	}
	out := make([]vasm.Reg, n)
	for k, v := range c.Regs[x : x+n] {
		out[k] = c.regOf(uint16(v))
	}
	return out
}

func (c *Code) decodeExit(x *Exit) *vasm.ExitInfo {
	ex := &vasm.ExitInfo{BCOff: int(x.BCOff), IsCatch: x.IsCatch, StackRegs: c.decodeRegs(x.Stack, x.NStack)}
	link := &ex.Inline
	for k := x.Inline; k >= 0; k = c.Inlines[k].Parent {
		fr := &c.Inlines[k]
		*link = &vasm.InlineInfo{FuncID: int(fr.FuncID), LocalsBase: int(fr.LocalsBase),
			ThisReg: c.regOf(fr.This), RetBCOff: int(fr.RetBCOff),
			CallerStackRegs: c.decodeRegs(fr.Stack, fr.NStack)}
		link = &(*link).Parent
	}
	return ex
}
