package emitter

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/hhbc"
)

func (fe *funcEmitter) stmts(list []ast.Stmt) error {
	for _, s := range list {
		if err := fe.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fe *funcEmitter) stmt(s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.ExprStmt:
		return fe.exprStmt(st.E)
	case *ast.Echo:
		for _, a := range st.Args {
			if err := fe.expr(a); err != nil {
				return err
			}
			fe.emit(hhbc.OpPrint, 0, 0, 0)
			fe.emit(hhbc.OpPopC, 0, 0, 0)
		}
		return nil
	case *ast.Return:
		if st.E != nil {
			if err := fe.expr(st.E); err != nil {
				return err
			}
		} else {
			fe.emit(hhbc.OpNull, 0, 0, 0)
		}
		fe.emit(hhbc.OpRetC, 0, 0, 0)
		return nil
	case *ast.If:
		return fe.ifStmt(st)
	case *ast.While:
		return fe.whileStmt(st)
	case *ast.For:
		return fe.forStmt(st)
	case *ast.Foreach:
		return fe.foreachStmt(st)
	case *ast.Break:
		if len(fe.loops) == 0 {
			return fmt.Errorf("break outside loop")
		}
		lc := fe.loops[len(fe.loops)-1]
		if lc.iterToFree >= 0 {
			fe.emit(hhbc.OpIterFree, int32(lc.iterToFree), 0, 0)
		}
		lc.breaks = append(lc.breaks, fe.emit(hhbc.OpJmp, 0, 0, 0))
		return nil
	case *ast.Continue:
		if len(fe.loops) == 0 {
			return fmt.Errorf("continue outside loop")
		}
		lc := fe.loops[len(fe.loops)-1]
		lc.continues = append(lc.continues, fe.emit(hhbc.OpJmp, 0, 0, 0))
		return nil
	case *ast.Throw:
		if err := fe.expr(st.E); err != nil {
			return err
		}
		fe.emit(hhbc.OpThrow, 0, 0, 0)
		return nil
	case *ast.Try:
		return fe.tryStmt(st)
	case *ast.Switch:
		return fe.switchStmt(st)
	case *ast.Unset:
		return fe.unsetStmt(st)
	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
}

// exprStmt emits e for effect only, avoiding a push+pop where the
// statement form has a dedicated bytecode (the PopL pattern from the
// paper's Figure 3).
func (fe *funcEmitter) exprStmt(e ast.Expr) error {
	switch v := e.(type) {
	case *ast.Assign:
		return fe.assign(v, false)
	case *ast.IncDec:
		if tgt, ok := v.Target.(*ast.Var); ok {
			op := int32(hhbc.PostInc)
			if !v.Inc {
				op = hhbc.PostDec
			}
			fe.emit(hhbc.OpIncDecL, fe.local(tgt.Name), op, 0)
			fe.emit(hhbc.OpPopC, 0, 0, 0)
			return nil
		}
		if err := fe.expr(e); err != nil {
			return err
		}
		fe.emit(hhbc.OpPopC, 0, 0, 0)
		return nil
	case *ast.NullLit:
		return nil // empty statement
	default:
		if err := fe.expr(e); err != nil {
			return err
		}
		fe.emit(hhbc.OpPopC, 0, 0, 0)
		return nil
	}
}

func (fe *funcEmitter) ifStmt(st *ast.If) error {
	if err := fe.expr(st.Cond); err != nil {
		return err
	}
	jz := fe.emit(hhbc.OpJmpZ, 0, 0, 0)
	if err := fe.stmts(st.Then); err != nil {
		return err
	}
	if len(st.Else) == 0 {
		fe.patch(jz, fe.pc())
		return nil
	}
	jend := fe.emit(hhbc.OpJmp, 0, 0, 0)
	fe.patch(jz, fe.pc())
	if err := fe.stmts(st.Else); err != nil {
		return err
	}
	fe.patch(jend, fe.pc())
	return nil
}

func (fe *funcEmitter) pushLoop(iterToFree int) *loopCtx {
	lc := &loopCtx{iterToFree: iterToFree}
	fe.loops = append(fe.loops, lc)
	return lc
}

func (fe *funcEmitter) popLoop(lc *loopCtx, continueTarget, breakTarget int) {
	for _, pc := range lc.breaks {
		fe.patch(pc, breakTarget)
	}
	for _, pc := range lc.continues {
		fe.patch(pc, continueTarget)
	}
	fe.loops = fe.loops[:len(fe.loops)-1]
}

func (fe *funcEmitter) whileStmt(st *ast.While) error {
	head := fe.pc()
	if err := fe.expr(st.Cond); err != nil {
		return err
	}
	exit := fe.emit(hhbc.OpJmpZ, 0, 0, 0)
	lc := fe.pushLoop(-1)
	if err := fe.stmts(st.Body); err != nil {
		return err
	}
	fe.emit(hhbc.OpJmp, int32(head), 0, 0)
	end := fe.pc()
	fe.patch(exit, end)
	fe.popLoop(lc, head, end)
	return nil
}

func (fe *funcEmitter) forStmt(st *ast.For) error {
	for _, e := range st.Init {
		if err := fe.exprStmt(e); err != nil {
			return err
		}
	}
	head := fe.pc()
	var exit int = -1
	if st.Cond != nil {
		if err := fe.expr(st.Cond); err != nil {
			return err
		}
		exit = fe.emit(hhbc.OpJmpZ, 0, 0, 0)
	}
	lc := fe.pushLoop(-1)
	if err := fe.stmts(st.Body); err != nil {
		return err
	}
	cont := fe.pc()
	for _, e := range st.Step {
		if err := fe.exprStmt(e); err != nil {
			return err
		}
	}
	fe.emit(hhbc.OpJmp, int32(head), 0, 0)
	end := fe.pc()
	if exit >= 0 {
		fe.patch(exit, end)
	}
	fe.popLoop(lc, cont, end)
	return nil
}

func (fe *funcEmitter) foreachStmt(st *ast.Foreach) error {
	// Evaluate the array into a temp local so the iterator has a
	// stable base.
	var arrLocal int32
	if v, ok := st.Arr.(*ast.Var); ok {
		arrLocal = fe.local(v.Name)
	} else {
		if err := fe.expr(st.Arr); err != nil {
			return err
		}
		arrLocal = fe.temp()
		fe.emit(hhbc.OpPopL, arrLocal, 0, 0)
	}
	it := fe.iter()
	initPC := fe.emit(hhbc.OpIterInitL, it, 0, arrLocal)
	body := fe.pc()
	if st.KeyVar != "" {
		fe.emit(hhbc.OpIterKey, it, 0, 0)
		fe.emit(hhbc.OpPopL, fe.local(st.KeyVar), 0, 0)
	}
	fe.emit(hhbc.OpIterValue, it, 0, 0)
	fe.emit(hhbc.OpPopL, fe.local(st.ValVar), 0, 0)
	lc := fe.pushLoop(int(it))
	if err := fe.stmts(st.Body); err != nil {
		return err
	}
	cont := fe.pc()
	fe.emit(hhbc.OpIterNext, it, int32(body), 0)
	fe.emit(hhbc.OpIterFree, it, 0, 0)
	end := fe.pc()
	fe.fn.Instrs[initPC].B = int32(end)
	fe.popLoop(lc, cont, end)
	return nil
}

func (fe *funcEmitter) tryStmt(st *ast.Try) error {
	start := fe.pc()
	if err := fe.stmts(st.Body); err != nil {
		return err
	}
	jend := fe.emit(hhbc.OpJmp, 0, 0, 0)
	tryEnd := fe.pc()

	handler := fe.pc()
	fe.emit(hhbc.OpCatch, 0, 0, 0)
	var ends []int
	for _, c := range st.Catches {
		fe.emit(hhbc.OpDup, 0, 0, 0)
		fe.emit(hhbc.OpInstanceOfD, fe.unit.InternString(c.Class), 0, 0)
		skip := fe.emit(hhbc.OpJmpZ, 0, 0, 0)
		fe.emit(hhbc.OpPopL, fe.local(c.Var), 0, 0)
		if err := fe.stmts(c.Body); err != nil {
			return err
		}
		ends = append(ends, fe.emit(hhbc.OpJmp, 0, 0, 0))
		fe.patch(skip, fe.pc())
	}
	// No clause matched: rethrow.
	fe.emit(hhbc.OpThrow, 0, 0, 0)
	end := fe.pc()
	fe.patch(jend, end)
	for _, pc := range ends {
		fe.patch(pc, end)
	}
	fe.fn.EHTable = append(fe.fn.EHTable, hhbc.EHEnt{Start: start, End: tryEnd, Handler: handler})
	return nil
}

func (fe *funcEmitter) switchStmt(st *ast.Switch) error {
	if err := fe.expr(st.Subject); err != nil {
		return err
	}
	// Dense integer cases use a real jump table.
	if tbl, ok := denseIntCases(st); ok {
		return fe.emitTableSwitch(st, tbl)
	}
	// General form: compare subject (kept in a temp) against each
	// case value.
	tmp := fe.temp()
	fe.emit(hhbc.OpPopL, tmp, 0, 0)
	var bodyJmps []int
	for _, c := range st.Cases {
		if err := fe.expr(c.Value); err != nil {
			return err
		}
		fe.emit(hhbc.OpCGetL2, tmp, 0, 0)
		fe.emit(hhbc.OpEq, 0, 0, 0)
		bodyJmps = append(bodyJmps, fe.emit(hhbc.OpJmpNZ, 0, 0, 0))
	}
	defaultJmp := fe.emit(hhbc.OpJmp, 0, 0, 0)

	lc := fe.pushLoop(-1) // switch participates in break
	bodyStarts := make([]int, len(st.Cases))
	for i, c := range st.Cases {
		bodyStarts[i] = fe.pc()
		if err := fe.stmts(c.Body); err != nil {
			return err
		}
	}
	defaultStart := fe.pc()
	if st.Default != nil {
		if err := fe.stmts(st.Default); err != nil {
			return err
		}
	}
	end := fe.pc()
	for i, pc := range bodyJmps {
		fe.patch(pc, bodyStarts[i])
	}
	fe.patch(defaultJmp, defaultStart)
	fe.popLoop(lc, end, end)
	return nil
}

// denseIntCases returns the int case values if all cases are int
// literals spanning a dense range.
func denseIntCases(st *ast.Switch) ([]int64, bool) {
	if len(st.Cases) < 3 {
		return nil, false
	}
	vals := make([]int64, len(st.Cases))
	lo, hi := int64(1<<62), int64(-1<<62)
	for i, c := range st.Cases {
		il, ok := c.Value.(*ast.IntLit)
		if !ok {
			return nil, false
		}
		vals[i] = il.Value
		if il.Value < lo {
			lo = il.Value
		}
		if il.Value > hi {
			hi = il.Value
		}
	}
	if hi-lo+1 > 3*int64(len(vals)) {
		return nil, false
	}
	return vals, true
}

func (fe *funcEmitter) emitTableSwitch(st *ast.Switch, vals []int64) error {
	lo := vals[0]
	hi := vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	sw := hhbc.SwitchTable{Base: lo, Targets: make([]int, hi-lo+1)}
	tblIdx := len(fe.fn.Switches)
	fe.fn.Switches = append(fe.fn.Switches, sw)
	fe.emit(hhbc.OpSwitch, int32(tblIdx), 0, 0)

	lc := fe.pushLoop(-1)
	starts := make([]int, len(st.Cases))
	for i, c := range st.Cases {
		starts[i] = fe.pc()
		if err := fe.stmts(c.Body); err != nil {
			return err
		}
	}
	defaultStart := fe.pc()
	if st.Default != nil {
		if err := fe.stmts(st.Default); err != nil {
			return err
		}
	}
	end := fe.pc()
	// Fill the table: unmatched slots go to default.
	tbl := &fe.fn.Switches[tblIdx]
	for i := range tbl.Targets {
		tbl.Targets[i] = defaultStart
	}
	for i, v := range vals {
		tbl.Targets[v-lo] = starts[i]
	}
	tbl.Default = defaultStart
	fe.popLoop(lc, end, end)
	return nil
}

func (fe *funcEmitter) unsetStmt(st *ast.Unset) error {
	switch t := st.E.(type) {
	case *ast.Var:
		fe.emit(hhbc.OpUnsetL, fe.local(t.Name), 0, 0)
		return nil
	case *ast.Index:
		v, ok := t.Arr.(*ast.Var)
		if !ok {
			return fmt.Errorf("unset of computed array expression not supported")
		}
		if err := fe.expr(t.Key); err != nil {
			return err
		}
		fe.emit(hhbc.OpArrUnsetL, fe.local(v.Name), 0, 0)
		return nil
	default:
		return fmt.Errorf("unsupported unset target %T", st.E)
	}
}
