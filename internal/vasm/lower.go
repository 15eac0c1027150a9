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
	lw.immOf = slab.Grow(lw.immOf, hu.NumTmpIDs())
	lw.needsReg = slab.Grow(lw.needsReg, hu.NumTmpIDs())
	lw.stubOf = slab.Grow(lw.stubOf, hu.NumExitIDs())
	for i := range lw.blockOf {
		lw.blockOf[i] = -1
	}
	for i := range lw.stubOf {
		lw.stubOf[i] = -1
	}
	clear(lw.regOf)
	clear(lw.immOf)
	clear(lw.needsReg)
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
	lw.markRegUses(hu.Blocks)
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
	// immOf[id] is one more than the constant-pool index of the constant
	// with that ID (0: not pooled yet), and needsReg[id] reports that
	// some instruction reads that constant from a register, so that its
	// definition loads it (markRegUses).
	immOf    []int32
	needsReg []bool
	nextReg  Reg
	cur      *Block
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

// constant returns the constant t names — t, or the value it is
// another name of (sameValue) — when an instruction can carry it as an
// operand, nil otherwise. Null, uninit, a bool, an int that fits 32
// bits sign-extended and a string can: a string constant is static,
// and HHVM keeps static strings in low memory, so its address is an
// imm32 too. A double or a wider int is loaded into a register (LdImm),
// as on x86.
func (lw *lowerer) constant(t *hhir.SSATmp) *hhir.SSATmp {
	for src := lw.sameValue(t); src != nil; src = lw.sameValue(t) {
		t = src
	}
	if t.Def == nil {
		return nil
	}
	switch v := t.Def.I64; t.Def.Op {
	case hhir.DefConstInt:
		if v != int64(int32(v)) {
			return nil
		}
	case hhir.DefConstBool, hhir.DefConstNull, hhir.DefConstStr:
	default:
		return nil
	}
	return t
}

// carry says how the instruction an HHIR instruction lowers to can
// carry one of its operands when that is a constant.
type carry uint8

const (
	carryNone carry = iota // in a register only
	carryList              // as an entry of its operand list, for free
	carryImm               // as its immediate, in a longer encoding
)

// carries says how the instruction hin lowers to can carry its operand
// Args[i], a constant (constant): any entry of a helper's or a call's
// operand list; as an immediate, on an op that has an immediate form
// (Op.HasImmForm): the value a local store or a return writes, either operand of an int add or multiply (the first only when
// the second is no constant: an instruction carries one), and a
// subtraction's second. An int compare keeps its load: with an imm32
// form, region code sped up so much more than tracelet code that Fig
// 8's tracelet bar fell under its floor (DESIGN.md §6 "Constant
// operands").
func (lw *lowerer) carries(hin *hhir.Instr, i int) carry {
	if lw.constant(hin.Args[i]) == nil {
		return carryNone
	}
	switch row := rowOf(hin); row.form {
	case formHelper, formCall:
		return carryList
	case formOp:
		if !row.op.HasImmForm() {
			break
		}
		switch row.op {
		case StLoc, Ret:
			if i == 0 {
				return carryImm
			}
		case SubI:
			if i == 1 {
				return carryImm
			}
		case AddI, MulI:
			if i == 1 || lw.constant(hin.Args[1]) == nil {
				return carryImm
			}
		}
	}
	return carryNone
}

// immArg reports whether hin's lowering reads its operand Args[i] as a
// constant: wherever it can carry it (carries) — as an immediate only
// when no register holds the constant anyway, since the register form
// is the shorter.
func (lw *lowerer) immArg(hin *hhir.Instr, i int) bool {
	switch lw.carries(hin, i) {
	case carryList:
		return true
	case carryImm:
		return !lw.needsReg[lw.constant(hin.Args[i]).ID]
	}
	return false
}

// markRegUses sets needsReg for every constant an instruction reads
// from a register: an operand its instruction cannot carry (carries).
// The other reads of a value take a constant as it is — an exit's
// stacks (use), an edge's arguments (edgeMoves loads a constant
// straight into the parameter).
func (lw *lowerer) markRegUses(blocks []*hhir.Block) {
	for _, hb := range blocks {
		for _, hin := range hb.Instrs {
			for i, a := range hin.Args {
				if c := lw.constant(a); c != nil && lw.carries(hin, i) == carryNone {
					lw.needsReg[c.ID] = true
				}
			}
		}
	}
}

// imm returns the constant operand that reads the constant c defines,
// pooling c at its first use.
func (lw *lowerer) imm(c *hhir.SSATmp) Reg {
	if k := lw.immOf[c.ID]; k != 0 {
		return ImmReg(int(k - 1))
	}
	k := len(lw.out.Imms)
	lw.out.Imms = append(lw.out.Imms, immValue(c.Def))
	lw.immOf[c.ID] = int32(k + 1)
	return ImmReg(k)
}

// use returns the operand that reads t where a constant may stand:
// t's constant, or t's register.
func (lw *lowerer) use(t *hhir.SSATmp) Reg {
	if c := lw.constant(t); c != nil {
		return lw.imm(c)
	}
	return lw.reg(t)
}

// arg returns the operand that reads hin.Args[i].
func (lw *lowerer) arg(hin *hhir.Instr, i int) Reg {
	if lw.immArg(hin, i) {
		return lw.imm(lw.constant(hin.Args[i]))
	}
	return lw.reg(hin.Args[i])
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
	info.StackRegs = lw.uses(ex.Stack)
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
		ii.ThisReg = lw.use(ic.This)
	}
	ii.CallerStackRegs = lw.uses(ic.CallerStack)
	return ii
}

type move struct{ dst, src Reg }

// edgeMoves lists the copies an edge passing args to target needs. A
// constant argument is loaded into its parameter's register.
func (lw *lowerer) edgeMoves(target *hhir.Block, args []*hhir.SSATmp) []move {
	moves := lw.moves[:0]
	for i, a := range args {
		if i >= len(target.Params) {
			break
		}
		p, s := target.Params[i], lw.use(a)
		if lw.use(p) != s { // else the parameter is the argument (reg, constant)
			moves = append(moves, move{lw.reg(p), s})
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

// copy emits d <- s unless they are the same register: a load when s
// is a constant.
func (lw *lowerer) copy(d, s Reg) {
	switch {
	case s.IsImm():
		lw.ldImm(d, s.Imm())
	case d != s:
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

// rowOf returns hin's row, a conversion's resolved: inline when the
// operand's kind is known, out of line otherwise.
func rowOf(hin *hhir.Instr) lowerRow {
	row := lowerTable[hin.Op]
	if row.form == formConv {
		if hin.Args[0].Type.IsSpecific() {
			row.form = formOp
		} else {
			row.form, row.op = formHelper, Helper
		}
	}
	return row
}

// lowerTable is the HHIR -> vasm mapping, one row per HHIR opcode.
var lowerTable = [hhir.OpcodeCount]lowerRow{
	hhir.Nop: noCode, hhir.AssertType: noCode, hhir.EndInline: noCode,

	// Constants go through the unit's constant pool: loaded only where
	// a register must hold them (markRegUses).
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

// ldImm loads constant-pool entry k into d.
func (lw *lowerer) ldImm(d Reg, k int) {
	in := nzInstr(LdImm)
	in.D = d
	in.I64 = int64(k)
	lw.emit(in)
}

// immValue is the constant a DefConst instruction defines.
func immValue(def *hhir.Instr) ImmValue {
	switch def.Op {
	case hhir.DefConstInt:
		return ImmValue{Kind: types.KInt, I: def.I64}
	case hhir.DefConstDbl:
		return ImmValue{Kind: types.KDbl, D: math.Float64frombits(uint64(def.I64))}
	case hhir.DefConstBool:
		return ImmValue{Kind: types.KBool, I: def.I64}
	case hhir.DefConstStr:
		return ImmValue{Kind: types.KStr, S: def.Str}
	case hhir.DefConstNull:
		if def.I64 == 1 {
			return ImmValue{Kind: types.KUninit}
		}
	}
	return ImmValue{Kind: types.KNull}
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

// uses returns the operands that read ts (use), nil for none, cut from
// the unit's slab.
func (lw *lowerer) uses(ts []*hhir.SSATmp) []Reg {
	out := lw.out.mem.regs.Window(len(ts))
	for i, t := range ts {
		out[i] = lw.use(t)
	}
	return out
}

// lowerInstr lowers hin as its row says. Registers are numbered in the
// order they are first asked for — destination, then (helpers) the catch
// stub's stack, then operands, then (ops and calls) the stub's — and
// that order is part of the output.
func (lw *lowerer) lowerInstr(hin *hhir.Instr) error {
	row := rowOf(hin)
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
			in.A = lw.arg(hin, 0)
		}
		if len(hin.Args) > 1 {
			in.B = lw.arg(hin, 1)
		}
		if in.A.IsImm() && in.B != InvalidReg {
			// The constant goes second, as in x86's reg-imm forms: an add
			// or a multiply commutes.
			in.A, in.B = in.B, in.A
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
		in.Args = lw.uses(hin.Args)
	case formCall:
		in.D = lw.reg(hin.Dst)
		in.Args = lw.uses(hin.Args)
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
	case hhir.DefConstInt, hhir.DefConstDbl, hhir.DefConstBool, hhir.DefConstNull, hhir.DefConstStr:
		// A constant every reader carries needs no register.
		if c := lw.constant(hin.Dst); c == nil || lw.needsReg[c.ID] {
			k := lw.imm(hin.Dst).Imm()
			lw.ldImm(lw.reg(hin.Dst), k)
		}

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
