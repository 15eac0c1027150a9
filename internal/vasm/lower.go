package vasm

import (
	"fmt"
	"math"

	"repro/internal/hhir"
	"repro/internal/types"
)

// Lower translates an optimized HHIR unit into Vasm with virtual
// registers. Exit descriptors become stub blocks in the frozen area.
func Lower(hu *hhir.Unit) (*Unit, error) {
	lw := &lowerer{
		hu:      hu,
		out:     &Unit{},
		blockOf: map[*hhir.Block]int{},
		regOf:   map[*hhir.SSATmp]Reg{},
		stubOf:  map[*hhir.ExitDesc]int{},
	}
	// Pre-create blocks in HHIR order (entry first).
	ordered := append([]*hhir.Block(nil), hu.Blocks...)
	for i, hb := range ordered {
		vb := &Block{ID: i, Weight: hb.Weight, Hint: Hint(hb.Hint)}
		lw.out.Blocks = append(lw.out.Blocks, vb)
		lw.blockOf[hb] = i
	}
	if len(ordered) == 0 || hu.Entry == nil {
		return nil, fmt.Errorf("vasm: empty HHIR unit")
	}
	if lw.blockOf[hu.Entry] != 0 {
		return nil, fmt.Errorf("vasm: entry is not the first block")
	}
	lw.countEdges(ordered)
	for i, hb := range ordered {
		if err := lw.lowerBlock(hb, lw.out.Blocks[i]); err != nil {
			return nil, err
		}
	}
	lw.out.NumVRegs = int(lw.nextReg)
	lw.out.ExtFrameSlots = hu.ExtFrameSlots
	return lw.out, nil
}

type lowerer struct {
	hu      *hhir.Unit
	out     *Unit
	blockOf map[*hhir.Block]int
	regOf   map[*hhir.SSATmp]Reg
	stubOf  map[*hhir.ExitDesc]int
	nextReg Reg
	cur     *Block
	// edgesIn[b] counts the edges into HHIR block b, and soleArgs[b] is
	// the argument list of the last one counted: the only one when the
	// count is 1.
	edgesIn  []int
	soleArgs [][]*hhir.SSATmp
	moves    []move
}

// countEdges fills edgesIn and soleArgs.
func (lw *lowerer) countEdges(blocks []*hhir.Block) {
	lw.edgesIn = make([]int, len(blocks))
	lw.soleArgs = make([][]*hhir.SSATmp, len(blocks))
	edge := func(to *hhir.Block, args []*hhir.SSATmp) {
		if to != nil {
			lw.edgesIn[lw.blockOf[to]]++
			lw.soleArgs[lw.blockOf[to]] = args
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
	if r, ok := lw.regOf[t]; ok {
		return r
	}
	var r Reg
	if src := lw.sameValue(t); src != nil {
		r = lw.reg(src)
		lw.out.Alloc.Aliased++
	} else {
		r = lw.fresh()
	}
	lw.regOf[t] = r
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
	if bi, ok := lw.blockOf[t.DefBlock]; ok && bi != 0 && lw.edgesIn[bi] == 1 {
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

// stub returns (creating if needed) the stub block for an exit.
func (lw *lowerer) stub(ex *hhir.ExitDesc) int {
	if ex == nil {
		return -1
	}
	if id, ok := lw.stubOf[ex]; ok {
		return id
	}
	vb := &Block{ID: len(lw.out.Blocks), Hint: HintStub}
	lw.out.Blocks = append(lw.out.Blocks, vb)
	lw.stubOf[ex] = vb.ID
	info := &ExitInfo{BCOff: ex.BCOff, IsCatch: ex.IsCatch}
	for _, t := range ex.Stack {
		info.StackRegs = append(info.StackRegs, lw.reg(t))
	}
	info.Inline = lw.inlineInfo(ex.Inline)
	exit := nzInstr(Exit)
	exit.Ex = info
	vb.Instrs = append(vb.Instrs, exit)
	return vb.ID
}

// inlineInfo converts an HHIR inline-context chain.
func (lw *lowerer) inlineInfo(ic *hhir.InlineCtx) *InlineInfo {
	if ic == nil {
		return nil
	}
	ii := &InlineInfo{
		FuncID:     ic.Callee.ID,
		LocalsBase: ic.LocalsBase,
		ThisReg:    InvalidReg,
		RetBCOff:   ic.RetBCOff,
		Parent:     lw.inlineInfo(ic.Parent),
	}
	if ic.This != nil {
		ii.ThisReg = lw.reg(ic.This)
	}
	for _, t := range ic.CallerStack {
		ii.CallerStackRegs = append(ii.CallerStackRegs, lw.reg(t))
	}
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

// edgeCopies emits the parallel copies feeding target's params at the
// current point: the place for them when nothing but the edge follows.
func (lw *lowerer) edgeCopies(target *hhir.Block, args []*hhir.SSATmp) {
	lw.emitMoves(lw.edgeMoves(target, args))
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

// Opcode tables of the one-to-one lowerings.
var (
	arithOp = map[hhir.Opcode]Op{
		hhir.AddInt: AddI, hhir.SubInt: SubI, hhir.MulInt: MulI,
		hhir.AddDbl: AddD, hhir.SubDbl: SubD, hhir.MulDbl: MulD,
		hhir.DivDbl: DivD,
	}
	convOp = map[hhir.Opcode]Op{
		hhir.ConvToBool: ToBool, hhir.ConvToInt: ToInt, hhir.ConvToDbl: ToDbl,
	}
	convHelper = map[hhir.Opcode]HelperID{
		hhir.ConvToBool: HConvToBoolGeneric, hhir.ConvToInt: HConvToIntGeneric,
		hhir.ConvToDbl: HConvToDblGeneric,
	}
	callOp = map[hhir.Opcode]Op{
		hhir.CallFunc: CallFunc, hhir.CallBuiltin: CallBuiltin,
		hhir.CallMethodD: CallMethodD, hhir.CallMethodC: CallMethodC,
	}
)

func (lw *lowerer) lowerBlock(hb *hhir.Block, vb *Block) error {
	lw.cur = vb
	// Entry-block params come from the frame's eval stack.
	if lw.blockOf[hb] == 0 {
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

func (lw *lowerer) lowerInstr(hin *hhir.Instr) error {
	switch hin.Op {
	case hhir.Nop:

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

	case hhir.AssertType:
		// No code: the result is its operand's register (reg).

	case hhir.CheckType:
		g := nzInstr(GuardKind)
		g.A = lw.reg(hin.Dst)
		g.TypeParam = hin.TypeParam
		g.Target1 = lw.guardTarget(hin)
		lw.emit(g)
	case hhir.CheckCls:
		g := nzInstr(GuardCls)
		g.A = lw.reg(hin.Dst)
		g.I64 = hin.I64
		g.Target1 = lw.guardTarget(hin)
		lw.emit(g)

	case hhir.LdLoc:
		in := nzInstr(LdLoc)
		in.D = lw.reg(hin.Dst)
		in.I64 = hin.I64
		lw.emit(in)
	case hhir.StLoc:
		in := nzInstr(StLoc)
		in.A = lw.reg(hin.Args[0])
		in.I64 = hin.I64
		lw.emit(in)
	case hhir.LdThis:
		in := nzInstr(LdThis)
		in.D = lw.reg(hin.Dst)
		lw.emit(in)

	case hhir.IncRef:
		in := nzInstr(IncRef)
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)
	case hhir.DecRef:
		in := nzInstr(DecRef)
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)

	case hhir.AddInt, hhir.SubInt, hhir.MulInt, hhir.AddDbl, hhir.SubDbl,
		hhir.MulDbl, hhir.DivDbl:
		in := nzInstr(arithOp[hin.Op])
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		in.B = lw.reg(hin.Args[1])
		lw.emit(in)
	case hhir.NegInt, hhir.NegDbl:
		op := NegI
		if hin.Op == hhir.NegDbl {
			op = NegD
		}
		in := nzInstr(op)
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)
	case hhir.ModInt:
		lw.helper(HModInt, 0, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.DivNum:
		lw.helper(HDivNum, 0, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))

	case hhir.CmpInt, hhir.CmpDbl:
		op := CmpI
		if hin.Op == hhir.CmpDbl {
			op = CmpD
		}
		in := nzInstr(op)
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		in.B = lw.reg(hin.Args[1])
		in.I64 = hin.I64
		lw.emit(in)
	case hhir.CmpStr:
		lw.helper(HCmpStr, hin.I64, "", lw.reg(hin.Dst), -1,
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.EqAny:
		lw.helper(HEqAny, hin.I64, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.SameAny:
		lw.helper(HSameAny, hin.I64, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))

	case hhir.ConvToBool, hhir.ConvToInt, hhir.ConvToDbl:
		arg := hin.Args[0]
		if arg.Type.IsSpecific() {
			in := nzInstr(convOp[hin.Op])
			in.D = lw.reg(hin.Dst)
			in.A = lw.reg(arg)
			lw.emit(in)
		} else {
			lw.helper(convHelper[hin.Op], 0, "", lw.reg(hin.Dst), -1, lw.reg(arg))
		}
	case hhir.ConvToStr:
		lw.helper(HToStr, 0, "", lw.reg(hin.Dst), -1, lw.reg(hin.Args[0]))

	case hhir.BinopGeneric:
		lw.helper(HBinop, hin.I64, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.ConcatStr:
		lw.helper(HConcat, 0, "", lw.reg(hin.Dst), -1,
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))

	case hhir.CountArray:
		in := nzInstr(ArrCount)
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)
	case hhir.ArrGetPackedI:
		in := nzInstr(ArrGetPkI)
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		in.B = lw.reg(hin.Args[1])
		in.Target1 = lw.stub(hin.Exit)
		lw.emit(in)
	case hhir.ArrGetGeneric:
		lw.helper(HArrGetGeneric, 0, hin.Str, lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.ArrSetLocal:
		lw.helper(HArrSetLocal, hin.I64, "", InvalidReg, lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.ArrAppendLocal:
		lw.helper(HArrAppendLocal, hin.I64, "", InvalidReg, lw.stub(hin.Exit),
			lw.reg(hin.Args[0]))
	case hhir.ArrUnsetLocal:
		lw.helper(HArrUnsetLocal, hin.I64, "", InvalidReg, -1, lw.reg(hin.Args[0]))
	case hhir.AKExistsLocal:
		lw.helper(HAKExistsLocal, hin.I64, "", lw.reg(hin.Dst), -1, lw.reg(hin.Args[0]))
	case hhir.NewArr:
		lw.helper(HNewArr, 0, "", lw.reg(hin.Dst), -1)
	case hhir.NewPackedArr:
		args := make([]Reg, len(hin.Args))
		for i, a := range hin.Args {
			args[i] = lw.reg(a)
		}
		lw.helper(HNewPacked, 0, "", lw.reg(hin.Dst), -1, args...)
	case hhir.AddElem:
		lw.helper(HAddElem, 0, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]), lw.reg(hin.Args[2]))
	case hhir.AddNewElem:
		lw.helper(HAddNewElem, 0, "", lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))

	case hhir.IterInitLocal:
		iter, slot := hhir.UnpackIter(hin.I64)
		cond := lw.fresh()
		lw.helper(HIterInit, PackIterSlot(iter, slot), "", cond, -1)
		lw.branch(cond, hin)
		return nil
	case hhir.IterNextK:
		cond := lw.fresh()
		lw.helper(HIterNext, hin.I64, "", cond, -1)
		lw.branch(cond, hin)
		return nil
	case hhir.IterKey:
		lw.helper(HIterKey, hin.I64, "", lw.reg(hin.Dst), -1)
	case hhir.IterValue:
		lw.helper(HIterValue, hin.I64, "", lw.reg(hin.Dst), -1)
	case hhir.IterFree:
		lw.helper(HIterFree, hin.I64, "", InvalidReg, -1)

	case hhir.NewObj:
		lw.helper(HNewObj, 0, hin.Str, lw.reg(hin.Dst), lw.stub(hin.Exit))
	case hhir.LdPropSlot:
		in := nzInstr(LdProp)
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		in.I64 = hin.I64
		lw.emit(in)
	case hhir.StPropSlot:
		in := nzInstr(StProp)
		in.A = lw.reg(hin.Args[0])
		in.B = lw.reg(hin.Args[1])
		in.I64 = hin.I64
		lw.emit(in)
	case hhir.LdPropGeneric:
		lw.helper(HLdPropGeneric, 0, hin.Str, lw.reg(hin.Dst), lw.stub(hin.Exit),
			lw.reg(hin.Args[0]))
	case hhir.StPropGeneric:
		lw.helper(HStPropGeneric, 0, hin.Str, InvalidReg, lw.stub(hin.Exit),
			lw.reg(hin.Args[0]), lw.reg(hin.Args[1]))
	case hhir.GuardShape:
		g := nzInstr(GuardShape)
		g.A = lw.reg(hin.Args[0])
		g.I64 = hin.I64
		g.Target1 = lw.guardTarget(hin)
		lw.emit(g)
	case hhir.LdPropIC:
		in := nzInstr(LdPropIC)
		in.D = lw.reg(hin.Dst)
		in.A = lw.reg(hin.Args[0])
		in.Str = hin.Str
		in.Target1 = lw.stub(hin.Exit)
		lw.emit(in)
	case hhir.StPropIC:
		in := nzInstr(StPropIC)
		in.A = lw.reg(hin.Args[0])
		in.B = lw.reg(hin.Args[1])
		in.Str = hin.Str
		in.Target1 = lw.stub(hin.Exit)
		lw.emit(in)
	case hhir.ProfPropShape:
		in := nzInstr(ProfPropShape)
		in.I64 = hin.I64
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)
	case hhir.InstanceOf:
		lw.helper(HInstanceOf, hin.I64, hin.Str, lw.reg(hin.Dst), -1, lw.reg(hin.Args[0]))

	case hhir.CallFunc, hhir.CallBuiltin, hhir.CallMethodD, hhir.CallMethodC:
		in := nzInstr(callOp[hin.Op])
		in.D = lw.reg(hin.Dst)
		in.I64 = hin.I64
		in.Str = hin.Str
		in.Args = make([]Reg, len(hin.Args))
		for i, a := range hin.Args {
			in.Args[i] = lw.reg(a)
		}
		in.Target1 = lw.stub(hin.Exit)
		lw.emit(in)
	case hhir.VerifyParam:
		lw.helper(HVerifyParam, PackVerifyParam(hhir.UnpackVerify(hin.I64)), "",
			InvalidReg, lw.stub(hin.Exit))
	case hhir.ProfCount:
		in := nzInstr(CountInc)
		in.I64 = hin.I64
		lw.emit(in)
	case hhir.ProfCallSite:
		in := nzInstr(ProfCallSite)
		in.I64 = hin.I64
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)
	case hhir.PrintC:
		lw.helper(HPrint, 0, "", InvalidReg, -1, lw.reg(hin.Args[0]))
	case hhir.EndInline:
		// Pure marker.

	case hhir.Jmp:
		lw.edgeCopies(hin.Next, hin.NextArgs)
		in := nzInstr(Jmp)
		in.Target1 = lw.blockOf[hin.Next]
		lw.emit(in)
	case hhir.SwitchInt:
		tbl := JumpTable{Base: hin.I64, Default: lw.condEdge(hin.Taken, hin.TakenArgs)}
		for _, t := range hin.Table {
			tbl.Targets = append(tbl.Targets, lw.blockOf[t])
		}
		in := nzInstr(JmpTable)
		in.A = lw.reg(hin.Args[0])
		in.I64 = int64(len(lw.out.Tables))
		lw.out.Tables = append(lw.out.Tables, tbl)
		lw.emit(in)
	case hhir.Branch:
		lw.branch(lw.reg(hin.Args[0]), hin)
	case hhir.Ret:
		in := nzInstr(Ret)
		in.A = lw.reg(hin.Args[0])
		lw.emit(in)
	case hhir.ThrowC:
		lw.helper(HThrow, 0, "", InvalidReg, lw.stub(hin.Exit), lw.reg(hin.Args[0]))
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
	to := lw.blockOf[target]
	moves := lw.edgeMoves(target, args)
	if len(moves) == 0 {
		return to
	}
	vt := lw.out.Blocks[to]
	vb := &Block{ID: len(lw.out.Blocks), Weight: vt.Weight, Hint: vt.Hint}
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
