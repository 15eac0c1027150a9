package vasm

import (
	"fmt"
	"math"

	"repro/internal/hhir"
	"repro/internal/slab"
	"repro/internal/types"
)

// Lower translates an optimized HHIR unit into Vasm with virtual
// registers. Exit descriptors become stub blocks in the frozen area.
// The unit comes from a pool of released ones (Release), with their
// memory.
func Lower(hu *hhir.Unit) (*Unit, error) {
	if len(hu.Blocks) == 0 || hu.Entry == nil {
		return nil, fmt.Errorf("vasm: empty HHIR unit")
	}
	out := units.Get().(*Unit)
	m := &out.mem
	lw := &m.lower
	lw.hu, lw.out, lw.nextReg = hu, out, 0
	lw.blockOf = slab.Grow(lw.blockOf, hu.NumBlockIDs())
	lw.regOf = slab.Grow(lw.regOf, hu.NumTmpIDs())
	lw.stubOf = slab.Grow(lw.stubOf, hu.NumExitIDs())
	for i := range lw.blockOf {
		lw.blockOf[i] = -1
	}
	for i := range lw.stubOf {
		lw.stubOf[i] = -1
	}
	clear(lw.regOf)
	// Pre-create blocks in HHIR order (entry first), each with room for
	// about what its HHIR block lowers to, all from one backing array.
	n, exits, instrs, imms := len(hu.Blocks), 0, 0, 0
	for _, hb := range hu.Blocks {
		instrs += len(hb.Params) + len(hb.Instrs)
		for _, hin := range hb.Instrs {
			if hin.Exit != nil {
				exits++
			}
			switch hin.Op {
			case hhir.DefConstInt, hhir.DefConstDbl, hhir.DefConstBool, hhir.DefConstNull, hhir.DefConstStr:
				imms++ // an entry in the constant pool (ldImm)
			}
		}
	}
	out.Imms = slab.Grow(m.imms, imms)[:0]
	out.GuardTypes = m.guardTypes
	out.Tables = m.tables
	blocks := m.blocks.Window(n)
	out.Blocks = slab.Grow(m.blockList, n+exits)[:n]
	m.instrs.Reserve(instrs + exits)
	for i, hb := range hu.Blocks {
		vb := &blocks[i]
		*vb = Block{ID: i, Weight: hb.Weight, Hint: Hint(hb.Hint),
			Instrs: m.instrs.Window(len(hb.Params) + len(hb.Instrs))[:0]}
		out.Blocks[i] = vb
		lw.blockOf[hb.ID] = int32(i)
	}
	if lw.block(hu.Entry) != 0 {
		Release(out)
		return nil, fmt.Errorf("vasm: entry is not the first block")
	}
	lw.countEdges(hu.Blocks)
	for i, hb := range hu.Blocks {
		if err := lw.lowerBlock(hb, out.Blocks[i]); err != nil {
			Release(out)
			return nil, err
		}
	}
	out.NumVRegs = int(lw.nextReg)
	out.ExtFrameSlots = hu.ExtFrameSlots
	return out, nil
}

// lowerer is Lower's state. It lives in the unit's memory, which keeps
// its tables for the next compile.
type lowerer struct {
	hu  *hhir.Unit
	out *Unit
	// blockOf[id] is the vasm block of the HHIR block with that ID (-1:
	// not in the unit), regOf[id] one more than the register of the
	// value with that ID (0: none yet), stubOf[id] the stub block of
	// the exit with that ID (-1: none yet).
	blockOf []int32
	regOf   []Reg
	stubOf  []int32
	nextReg Reg
	cur     *Block
	// edgesIn[b] counts the edges into HHIR block b, and soleArgs[b] is
	// the argument list of the last one counted: the only one when the
	// count is 1.
	edgesIn  []int
	soleArgs [][]*hhir.SSATmp
	moves    []move
}

// release drops what the lowerer refers to outside its unit.
func (lw *lowerer) release() {
	lw.hu, lw.out, lw.cur = nil, nil, nil
	clear(lw.soleArgs) // past its length: cleared by the release that reached there
}

// block returns the vasm block of hb, -1 when hb is not in the unit.
func (lw *lowerer) block(hb *hhir.Block) int { return int(lw.blockOf[hb.ID]) }

// countEdges fills edgesIn and soleArgs.
func (lw *lowerer) countEdges(blocks []*hhir.Block) {
	lw.edgesIn = slab.Grow(lw.edgesIn, len(blocks))
	lw.soleArgs = slab.Grow(lw.soleArgs, len(blocks))
	clear(lw.edgesIn)
	clear(lw.soleArgs)
	edge := func(to *hhir.Block, args []*hhir.SSATmp) {
		if to != nil {
			lw.edgesIn[lw.block(to)]++
			lw.soleArgs[lw.block(to)] = args
		}
	}
	for _, hb := range blocks {
		for _, hin := range hb.Instrs {
			edge(hin.Taken, hin.TakenArgs)
			edge(hin.Next, hin.NextArgs)
			for _, t := range hin.Table {
				edge(t, nil)
			}
		}
	}
}

// reg returns the virtual register holding t. A value that is another
// value under a narrower type — the result of an AssertType, CheckType
// or CheckCls, and the parameter of a block only one edge enters —
// shares that value's register (DESIGN.md §6): no instruction defines
// it a second time, so the two never hold different bits while both
// are live.
func (lw *lowerer) reg(t *hhir.SSATmp) Reg {
	if t == nil {
		return InvalidReg
	}
	if r := lw.regOf[t.ID]; r != 0 {
		return r - 1
	}
	var r Reg
	if src := lw.sameValue(t); src != nil {
		r = lw.reg(src)
		lw.out.Alloc.Aliased++
	} else {
		r = lw.fresh()
	}
	lw.regOf[t.ID] = r + 1
	return r
}

// sameValue returns the value t is a retyped name of, nil when t is a
// value of its own.
func (lw *lowerer) sameValue(t *hhir.SSATmp) *hhir.SSATmp {
	if def := t.Def; def != nil {
		switch def.Op {
		case hhir.AssertType, hhir.CheckType, hhir.CheckCls:
			return def.Args[0]
		}
		return nil
	}
	// The entry block's parameters come from the frame, whatever jumps
	// back to it.
	if bi := lw.block(t.DefBlock); bi > 0 && lw.edgesIn[bi] == 1 {
		for i, p := range t.DefBlock.Params {
			if p == t && i < len(lw.soleArgs[bi]) {
				return lw.soleArgs[bi][i]
			}
		}
	}
	return nil
}

func (lw *lowerer) fresh() Reg {
	r := lw.nextReg
	lw.nextReg++
	return r
}

func (lw *lowerer) emit(in Instr) {
	lw.cur.Instrs = append(lw.cur.Instrs, in)
}

// stub returns (creating if needed) the stub block for an exit. The
// block, its instruction and its descriptor are cut from the unit's
// slabs: Allocate rewrites every descriptor into one of its own.
func (lw *lowerer) stub(ex *hhir.ExitDesc) int {
	if ex == nil {
		return -1
	}
	if id := lw.stubOf[ex.ID]; id >= 0 {
		return int(id)
	}
	u := lw.out
	vb := u.mem.blocks.One()
	vb.ID, vb.Hint = len(u.Blocks), HintStub
	u.Blocks = append(u.Blocks, vb)
	lw.stubOf[ex.ID] = int32(vb.ID)
	info := u.mem.exits.One()
	info.BCOff, info.IsCatch = ex.BCOff, ex.IsCatch
	info.StackRegs = lw.regs(ex.Stack)
	info.Inline = lw.inlineInfo(ex.Inline)
	vb.Instrs = u.mem.instrs.Window(1)
	vb.Instrs[0] = nzInstr(Exit)
	vb.Instrs[0].Ex = info
	return vb.ID
}

// inlineInfo converts an HHIR inline-context chain.
func (lw *lowerer) inlineInfo(ic *hhir.InlineCtx) *InlineInfo {
	if ic == nil {
		return nil
	}
	ii := lw.out.mem.inlines.One()
	*ii = InlineInfo{
		FuncID:     ic.Callee.ID,
		LocalsBase: ic.LocalsBase,
		ThisReg:    InvalidReg,
		RetBCOff:   ic.RetBCOff,
		Parent:     lw.inlineInfo(ic.Parent),
	}
	if ic.This != nil {
		ii.ThisReg = lw.reg(ic.This)
	}
	ii.CallerStackRegs = lw.regs(ic.CallerStack)
	return ii
}

type move struct{ dst, src Reg }

// edgeMoves lists the copies an edge passing args to target needs.
func (lw *lowerer) edgeMoves(target *hhir.Block, args []*hhir.SSATmp) []move {
	moves := lw.moves[:0]
	for i, a := range args {
		if i >= len(target.Params) {
			break
		}
		d := lw.reg(target.Params[i])
		s := lw.reg(a)
		if d != s {
			moves = append(moves, move{d, s})
		}
	}
	lw.moves = moves
	return moves
}

// emitMoves emits moves as one parallel copy.
func (lw *lowerer) emitMoves(moves []move) {
	// Topologically order; break cycles through a scratch register.
	for len(moves) > 0 {
		progressed := false
		for i := 0; i < len(moves); i++ {
			dstIsSrc := false
			for j := range moves {
				if j != i && moves[j].src == moves[i].dst {
					dstIsSrc = true
					break
				}
			}
			if !dstIsSrc {
				lw.copy(moves[i].dst, moves[i].src)
				moves = append(moves[:i], moves[i+1:]...)
				progressed = true
				break
			}
		}
		if !progressed {
			// Cycle: rotate through a scratch.
			scratch := lw.fresh()
			lw.copy(scratch, moves[0].src)
			moves[0].src = scratch
		}
	}
}

// nzInstr returns an instruction of op with every operand absent. All
// instructions are built from it: the zero value of Target1 would name
// block 0 as a successor (see ForEachTarget).
func nzInstr(op Op) Instr {
	return Instr{Op: op, D: InvalidReg, A: InvalidReg, B: InvalidReg, Target1: -1, Target2: -1}
}

// copy emits d <- s unless they are the same register.
func (lw *lowerer) copy(d, s Reg) {
	if d != s {
		in := nzInstr(Copy)
		in.D, in.A = d, s
		lw.emit(in)
	}
}

// lowerForm is the shape of an HHIR opcode's lowering; one driver in
// lowerInstr serves each.
type lowerForm uint8

const (
	formMissing lowerForm = iota // no row: a table bug (TestLowerTableCoversEveryOpcode)
	formHand                     // lowerByHand has a case for it
	formNone                     // no code: a marker, or a retyping whose result is its operand's register (reg)
	formOp                       // one instruction: D <- Dst, A and B <- Args
	formConv                     // formOp when the operand's kind is known, formHelper when it is not
	formGuard                    // a check on the register of Args[0], failing to Taken or to the exit stub
	formHelper                   // out-of-line helper: D <- Dst, every Arg in order
	formCall                     // guest call through the dispatcher: D <- Dst, every Arg in order
)

// What a row's instruction carries over from the HHIR instruction.
const (
	rI64   uint8 = 1 << iota // I64 (the helper's extra)
	rStr                     // Str
	rCatch                   // Target1 = the stub of Exit, where a raise unwinds to
)

// lowerRow says how one HHIR opcode becomes vasm.
type lowerRow struct {
	form   lowerForm
	op     Op       // the instruction (formConv: the inline one)
	helper HelperID // formHelper, formConv
	carry  uint8
}

func plain(op Op, carry uint8) lowerRow { return lowerRow{form: formOp, op: op, carry: carry} }
func guard(op Op, carry uint8) lowerRow { return lowerRow{form: formGuard, op: op, carry: carry} }
func help(h HelperID, carry uint8) lowerRow {
	return lowerRow{form: formHelper, op: Helper, helper: h, carry: carry}
}
func call(op Op) lowerRow { return lowerRow{form: formCall, op: op, carry: rI64 | rStr | rCatch} }

var (
	byHand = lowerRow{form: formHand}
	noCode = lowerRow{form: formNone}
)

// lowerTable is the HHIR -> vasm mapping, one row per HHIR opcode.
var lowerTable = [hhir.OpcodeCount]lowerRow{
	hhir.Nop: noCode, hhir.AssertType: noCode, hhir.EndInline: noCode,

	// Constants go through the unit's constant pool.
	hhir.DefConstInt: byHand, hhir.DefConstDbl: byHand, hhir.DefConstBool: byHand,
	hhir.DefConstNull: byHand, hhir.DefConstStr: byHand,

	hhir.CheckType:  guard(GuardKind, 0),
	hhir.CheckCls:   guard(GuardCls, rI64),
	hhir.GuardShape: guard(GuardShape, rI64),

	hhir.LdLoc:  plain(LdLoc, rI64),
	hhir.StLoc:  plain(StLoc, rI64),
	hhir.LdThis: plain(LdThis, 0),
	hhir.IncRef: plain(IncRef, 0),
	hhir.DecRef: plain(DecRef, 0),

	hhir.AddInt: plain(AddI, 0), hhir.SubInt: plain(SubI, 0), hhir.MulInt: plain(MulI, 0),
	hhir.AddDbl: plain(AddD, 0), hhir.SubDbl: plain(SubD, 0), hhir.MulDbl: plain(MulD, 0),
	hhir.DivDbl: plain(DivD, 0), hhir.NegInt: plain(NegI, 0), hhir.NegDbl: plain(NegD, 0),
	hhir.ModInt: help(HModInt, rCatch),
	hhir.DivNum: help(HDivNum, rCatch),

	hhir.CmpInt:  plain(CmpI, rI64),
	hhir.CmpDbl:  plain(CmpD, rI64),
	hhir.CmpStr:  help(HCmpStr, rI64),
	hhir.EqAny:   help(HEqAny, rI64|rCatch),
	hhir.SameAny: help(HSameAny, rI64|rCatch),

	hhir.ConvToBool:   {form: formConv, op: ToBool, helper: HConvToBoolGeneric},
	hhir.ConvToInt:    {form: formConv, op: ToInt, helper: HConvToIntGeneric},
	hhir.ConvToDbl:    {form: formConv, op: ToDbl, helper: HConvToDblGeneric},
	hhir.ConvToStr:    help(HToStr, 0),
	hhir.BinopGeneric: help(HBinop, rI64|rCatch),
	hhir.ConcatStr:    help(HConcat, 0),
	hhir.ConcatAppend: help(HConcatAppend, 0),

	hhir.CountArray:     plain(ArrCount, 0),
	hhir.ArrGetPackedI:  plain(ArrGetPkI, rCatch),
	hhir.ArrGetGeneric:  help(HArrGetGeneric, rStr|rCatch),
	hhir.ArrSetLocal:    help(HArrSetLocal, rI64|rCatch),
	hhir.ArrAppendLocal: help(HArrAppendLocal, rI64|rCatch),
	hhir.ArrUnsetLocal:  help(HArrUnsetLocal, rI64),
	hhir.AKExistsLocal:  help(HAKExistsLocal, rI64),
	hhir.NewArr:         help(HNewArr, rI64),
	hhir.NewPackedArr:   help(HNewPacked, 0),
	hhir.AddElem:        help(HAddElem, rCatch),
	hhir.AddNewElem:     help(HAddNewElem, rCatch),

	// A helper into a fresh register, then a branch on it.
	hhir.IterInitLocal: byHand, hhir.IterNextK: byHand,
	hhir.IterKey:   help(HIterKey, rI64),
	hhir.IterValue: help(HIterValue, rI64),
	hhir.IterFree:  help(HIterFree, rI64),

	hhir.NewObj:        help(HNewObj, rStr|rCatch),
	hhir.LdPropSlot:    plain(LdProp, rI64),
	hhir.StPropSlot:    plain(StProp, rI64),
	hhir.LdPropGeneric: help(HLdPropGeneric, rStr|rCatch),
	hhir.StPropGeneric: help(HStPropGeneric, rStr|rCatch),
	hhir.InstanceOf:    help(HInstanceOf, rI64|rStr),
	hhir.LdPropIC:      plain(LdPropIC, rStr|rCatch),
	hhir.StPropIC:      plain(StPropIC, rStr|rCatch),
	hhir.ProfPropShape: plain(ProfPropShape, rI64),

	hhir.CallFunc: call(CallFunc), hhir.CallBuiltin: call(CallBuiltin),
	hhir.CallMethodD: call(CallMethodD), hhir.CallMethodC: call(CallMethodC),
	hhir.VerifyParam:  byHand, // repacks its immediate for the machine
	hhir.ProfCount:    plain(CountInc, rI64),
	hhir.ProfCallSite: plain(ProfCallSite, rI64),
	hhir.PrintC:       help(HPrint, 0),

	hhir.Jmp: byHand, hhir.Branch: byHand, hhir.SwitchInt: byHand,
	hhir.SideExit: byHand, hhir.ReqBind: byHand,
	hhir.Ret:    plain(Ret, 0),
	hhir.ThrowC: help(HThrow, rCatch),
}

func (lw *lowerer) lowerBlock(hb *hhir.Block, vb *Block) error {
	lw.cur = vb
	// Entry-block params come from the frame's eval stack.
	if lw.block(hb) == 0 {
		for d, p := range hb.Params {
			in := nzInstr(LdStk)
			in.D = lw.reg(p)
			in.I64 = int64(d)
			lw.emit(in)
		}
	}
	for _, hin := range hb.Instrs {
		if err := lw.lowerInstr(hin); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) ldImm(d Reg, iv ImmValue) {
	in := nzInstr(LdImm)
	in.D = d
	in.I64 = int64(len(lw.out.Imms))
	lw.out.Imms = append(lw.out.Imms, iv)
	lw.emit(in)
}

func (lw *lowerer) helper(h HelperID, extra int64, str string, d Reg, catchStub int, args ...Reg) {
	in := nzInstr(Helper)
	in.D = d
	in.I64 = PackHelper(h, extra)
	in.Str = str
	in.Args = args
	in.Target1 = catchStub
	lw.emit(in)
}

// regs returns the registers of ts, nil for none, cut from the unit's
// slab.
func (lw *lowerer) regs(ts []*hhir.SSATmp) []Reg {
	out := lw.out.mem.regs.Window(len(ts))
	for i, t := range ts {
		out[i] = lw.reg(t)
	}
	return out
}

// lowerInstr lowers hin as its row says. Registers are numbered in the
// order they are first asked for — destination, then (helpers) the catch
// stub's stack, then operands, then (ops and calls) the stub's — and
// that order is part of the output.
func (lw *lowerer) lowerInstr(hin *hhir.Instr) error {
	row := lowerTable[hin.Op]
	if row.form == formConv {
		// Inline when the operand's kind is known, out of line otherwise.
		if hin.Args[0].Type.IsSpecific() {
			row.form = formOp
		} else {
			row.form, row.op = formHelper, Helper
		}
	}
	in := nzInstr(row.op)
	if row.carry&rI64 != 0 {
		in.I64 = hin.I64
	}
	if row.carry&rStr != 0 {
		in.Str = hin.Str
	}
	switch row.form {
	case formNone:
		return nil
	case formOp:
		in.D = lw.reg(hin.Dst)
		if len(hin.Args) > 0 {
			in.A = lw.reg(hin.Args[0])
		}
		if len(hin.Args) > 1 {
			in.B = lw.reg(hin.Args[1])
		}
		if row.carry&rCatch != 0 {
			in.Target1 = lw.stub(hin.Exit)
		}
	case formGuard:
		// The checked value under its refined type, where the check has
		// a result: reg gives it the operand's register.
		if hin.Dst != nil {
			in.A = lw.reg(hin.Dst)
		} else {
			in.A = lw.reg(hin.Args[0])
		}
		in.Target1 = lw.guardTarget(hin)
		if row.op == GuardKind {
			in.Target2 = len(lw.out.GuardTypes)
			lw.out.GuardTypes = append(lw.out.GuardTypes, hin.TypeParam)
		}
	case formHelper:
		in.D = lw.reg(hin.Dst)
		in.I64 = PackHelper(row.helper, in.I64)
		if row.carry&rCatch != 0 {
			in.Target1 = lw.stub(hin.Exit)
		}
		in.Args = lw.regs(hin.Args)
	case formCall:
		in.D = lw.reg(hin.Dst)
		in.Args = lw.regs(hin.Args)
		in.Target1 = lw.stub(hin.Exit)
	default:
		return lw.lowerByHand(hin)
	}
	lw.emit(in)
	return nil
}

// lowerByHand lowers the opcodes no row form fits.
func (lw *lowerer) lowerByHand(hin *hhir.Instr) error {
	switch hin.Op {
	case hhir.DefConstInt:
		lw.ldImm(lw.reg(hin.Dst), ImmValue{Kind: types.KInt, I: hin.I64})
	case hhir.DefConstDbl:
		lw.ldImm(lw.reg(hin.Dst), ImmValue{Kind: types.KDbl, D: math.Float64frombits(uint64(hin.I64))})
	case hhir.DefConstBool:
		lw.ldImm(lw.reg(hin.Dst), ImmValue{Kind: types.KBool, I: hin.I64})
	case hhir.DefConstNull:
		k := types.KNull
		if hin.I64 == 1 {
			k = types.KUninit
		}
		lw.ldImm(lw.reg(hin.Dst), ImmValue{Kind: k})
	case hhir.DefConstStr:
		lw.ldImm(lw.reg(hin.Dst), ImmValue{Kind: types.KStr, S: hin.Str})

	case hhir.IterInitLocal:
		iter, slot := hhir.UnpackIter(hin.I64)
		cond := lw.fresh()
		lw.helper(HIterInit, PackIterSlot(iter, slot), "", cond, -1)
		lw.branch(cond, hin)
	case hhir.IterNextK:
		cond := lw.fresh()
		lw.helper(HIterNext, hin.I64, "", cond, -1)
		lw.branch(cond, hin)
	case hhir.VerifyParam:
		lw.helper(HVerifyParam, PackVerifyParam(hhir.UnpackVerify(hin.I64)), "",
			InvalidReg, lw.stub(hin.Exit))

	case hhir.Jmp:
		// Nothing but the edge follows: its copies go right here.
		lw.emitMoves(lw.edgeMoves(hin.Next, hin.NextArgs))
		in := nzInstr(Jmp)
		in.Target1 = lw.block(hin.Next)
		lw.emit(in)
	case hhir.SwitchInt:
		tbl := JumpTable{Base: hin.I64, Default: lw.condEdge(hin.Taken, hin.TakenArgs)}
		tbl.Targets = lw.out.mem.ints.Window(len(hin.Table))
		for i, t := range hin.Table {
			tbl.Targets[i] = lw.block(t)
		}
		in := nzInstr(JmpTable)
		in.A = lw.reg(hin.Args[0])
		in.I64 = int64(len(lw.out.Tables))
		lw.out.Tables = append(lw.out.Tables, tbl)
		lw.emit(in)
	case hhir.Branch:
		lw.branch(lw.reg(hin.Args[0]), hin)
	case hhir.SideExit:
		in := nzInstr(Jmp)
		in.Target1 = lw.stub(hin.Exit)
		lw.emit(in)
	case hhir.ReqBind:
		in := nzInstr(BindJmp)
		in.I64 = hin.I64
		st := lw.stub(hin.Exit)
		in.Target1 = st
		// The exit info also lives on the instruction itself so the
		// dispatcher can rebuild state without running the stub.
		in.Ex = lw.out.Blocks[st].Instrs[0].Ex
		lw.emit(in)

	default:
		return fmt.Errorf("vasm: cannot lower %s", hin.Op)
	}
	return nil
}

// guardTarget resolves a guard's fail destination: the next chain
// block or a side-exit stub.
func (lw *lowerer) guardTarget(hin *hhir.Instr) int {
	if hin.Taken != nil {
		return lw.condEdge(hin.Taken, hin.TakenArgs)
	}
	return lw.stub(hin.Exit)
}

// condEdge returns the block a transfer that may not happen — a failing
// guard, one side of a branch — names to reach target with args. The
// copies into target's params may not run on the path that stays: the
// code there may still read those params (a block further down a loop
// whose guard fails back to the loop's head), and a value sharing a
// param's register (reg) stays equal to it only while the param is
// written on the edges into its block and nowhere else. So an edge
// that needs copies gets a block of its own for them.
func (lw *lowerer) condEdge(target *hhir.Block, args []*hhir.SSATmp) int {
	to := lw.block(target)
	moves := lw.edgeMoves(target, args)
	if len(moves) == 0 {
		return to
	}
	vt := lw.out.Blocks[to]
	vb := lw.out.mem.blocks.One()
	*vb = Block{ID: len(lw.out.Blocks), Weight: vt.Weight, Hint: vt.Hint,
		Instrs: lw.out.mem.instrs.Window(len(moves) + 2)[:0]}
	lw.out.Blocks = append(lw.out.Blocks, vb)
	saved := lw.cur
	lw.cur = vb
	lw.emitMoves(moves)
	in := nzInstr(Jmp)
	in.Target1 = to
	lw.emit(in)
	lw.cur = saved
	return vb.ID
}

// branch lowers a two-way terminator: cond ? Taken : Next.
func (lw *lowerer) branch(cond Reg, hin *hhir.Instr) {
	in := nzInstr(Jcc)
	in.A = cond
	in.Target1 = lw.condEdge(hin.Taken, hin.TakenArgs)
	in.Target2 = lw.condEdge(hin.Next, hin.NextArgs)
	lw.emit(in)
}
