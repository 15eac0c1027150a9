package emitter

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/hhbc"
	"repro/internal/runtime"
	"repro/internal/types"
)

// isSetBits are the kinds for which isset($x) is true.
var isSetBits = int32(types.KInitCell &^ types.KNull)

// expr emits e, leaving exactly one value on the stack.
func (fe *funcEmitter) expr(e ast.Expr) error {
	switch v := e.(type) {
	case *ast.IntLit:
		fe.emit(hhbc.OpInt, fe.unit.InternInt(v.Value), 0, 0)
	case *ast.FloatLit:
		fe.emit(hhbc.OpDouble, fe.unit.InternDouble(v.Value), 0, 0)
	case *ast.StringLit:
		fe.emit(hhbc.OpString, fe.unit.InternString(v.Value), 0, 0)
	case *ast.BoolLit:
		if v.Value {
			fe.emit(hhbc.OpTrue, 0, 0, 0)
		} else {
			fe.emit(hhbc.OpFalse, 0, 0, 0)
		}
	case *ast.NullLit:
		fe.emit(hhbc.OpNull, 0, 0, 0)
	case *ast.Var:
		fe.emit(hhbc.OpCGetL, fe.local(v.Name), 0, 0)
	case *ast.ThisExpr:
		fe.emit(hhbc.OpThis, 0, 0, 0)
	case *ast.Interp:
		return fe.concat(v)
	case *ast.ArrayLit:
		return fe.arrayLit(v)
	case *ast.Index:
		return fe.index(v)
	case *ast.Binop:
		return fe.binop(v)
	case *ast.Unop:
		return fe.unop(v)
	case *ast.IncDec:
		return fe.incDec(v)
	case *ast.Assign:
		return fe.assign(v, true)
	case *ast.Ternary:
		return fe.ternary(v)
	case *ast.Call:
		return fe.call(v)
	case *ast.MethodCall:
		return fe.methodCall(v)
	case *ast.StaticCall:
		return fe.staticCall(v)
	case *ast.New:
		return fe.newObj(v)
	case *ast.Prop:
		if err := fe.expr(v.Recv); err != nil {
			return err
		}
		fe.emit(hhbc.OpCGetPropD, fe.unit.InternString(v.Name), 0, 0)
	case *ast.InstanceOf:
		if err := fe.expr(v.E); err != nil {
			return err
		}
		fe.emit(hhbc.OpInstanceOfD, fe.unit.InternString(v.Class), 0, 0)
	case *ast.Isset:
		return fe.isset(v)
	case *ast.Cast:
		if err := fe.expr(v.E); err != nil {
			return err
		}
		switch v.To {
		case "int":
			fe.emit(hhbc.OpCastInt, 0, 0, 0)
		case "float":
			fe.emit(hhbc.OpCastDouble, 0, 0, 0)
		case "string":
			fe.emit(hhbc.OpCastString, 0, 0, 0)
		case "bool":
			fe.emit(hhbc.OpCastBool, 0, 0, 0)
		default:
			return fmt.Errorf("unsupported cast to %s", v.To)
		}
	default:
		return fmt.Errorf("unsupported expression %T", e)
	}
	return nil
}

// exprs emits each of list, left to right.
func (fe *funcEmitter) exprs(list []ast.Expr) error {
	for _, e := range list {
		if err := fe.expr(e); err != nil {
			return err
		}
	}
	return nil
}

// concat emits a `.` chain or an interpolated string as its operands
// and one ConcatN over all of them.
func (fe *funcEmitter) concat(e ast.Expr) error {
	return fe.concatN(0, ast.ConcatOperands(e, nil))
}

// concatN emits operands and the ConcatN joining them to the onStack
// operands already pushed.
func (fe *funcEmitter) concatN(onStack int, operands []ast.Expr) error {
	if err := fe.exprs(operands); err != nil {
		return err
	}
	if n := onStack + len(operands); n >= 2 {
		fe.emit(hhbc.OpConcatN, int32(n), 0, 0)
	}
	return nil
}

// compound applies a compound assignment's operator: the target's
// current value is on the stack, value is evaluated, the result
// replaces both.
func (fe *funcEmitter) compound(op string, value ast.Expr) error {
	if op == "." {
		return fe.concatN(1, ast.ConcatOperands(value, nil))
	}
	bop, ok := hhbc.BinaryOps[op]
	if !ok {
		return fmt.Errorf("unsupported compound assignment %q", op)
	}
	if err := fe.expr(value); err != nil {
		return err
	}
	fe.emit(bop, 0, 0, 0)
	return nil
}

// appended returns the operands a local assignment appends to its own
// target — `$x .= e…` and `$x = $x . e…` — or nil for any other
// assignment. ConcatL reads the target after every operand has run.
// That is when `.=` reads it, and when `$x . e1` does (PHP fetches a
// variable operand as the operator executes), but `$x . e1 . e2` has
// read $x before e2 runs: that form qualifies only when no operand
// after the first assigns anything.
func appended(v *ast.Assign, target string) []ast.Expr {
	switch v.Op {
	case ".":
		return ast.ConcatOperands(v.Value, nil)
	case "":
		ops := ast.ConcatOperands(v.Value, nil)
		if first, ok := ops[0].(*ast.Var); !ok || first.Name != target || len(ops) < 2 {
			return nil
		}
		for _, e := range ops[2:] {
			if assigns(e) {
				return nil
			}
		}
		return ops[1:]
	}
	return nil
}

// assigns reports whether evaluating e can store to a variable of the
// function being compiled: whether it contains an assignment or an
// increment. (A callee cannot: the language has no references.)
func assigns(e ast.Expr) bool {
	anyOf := func(list ...ast.Expr) bool {
		for _, e := range list {
			if e != nil && assigns(e) {
				return true
			}
		}
		return false
	}
	switch v := e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.StringLit, *ast.BoolLit, *ast.NullLit, *ast.Var, *ast.ThisExpr:
		return false
	case *ast.ArrayLit:
		return anyOf(v.Keys...) || anyOf(v.Vals...)
	case *ast.Index:
		return anyOf(v.Arr, v.Key)
	case *ast.Binop:
		return anyOf(v.L, v.R)
	case *ast.Unop:
		return anyOf(v.E)
	case *ast.Ternary:
		return anyOf(v.Cond, v.Then, v.Else)
	case *ast.Call:
		return anyOf(v.Args...)
	case *ast.MethodCall:
		return anyOf(v.Recv) || anyOf(v.Args...)
	case *ast.StaticCall:
		return anyOf(v.Args...)
	case *ast.New:
		return anyOf(v.Args...)
	case *ast.Prop:
		return anyOf(v.Recv)
	case *ast.InstanceOf:
		return anyOf(v.E)
	case *ast.Isset:
		return anyOf(v.E)
	case *ast.Cast:
		return anyOf(v.E)
	case *ast.Interp:
		return anyOf(v.Parts...)
	}
	return true // Assign, IncDec, and anything this list does not know
}

func (fe *funcEmitter) arrayLit(v *ast.ArrayLit) error {
	if !v.IsMap {
		for _, el := range v.Vals {
			if err := fe.expr(el); err != nil {
				return err
			}
		}
		fe.emit(hhbc.OpNewPackedArray, int32(len(v.Vals)), 0, 0)
		return nil
	}
	fe.emit(hhbc.OpNewArray, int32(len(v.Vals)), 0, 0)
	for i := range v.Vals {
		if v.Keys[i] == nil {
			if err := fe.expr(v.Vals[i]); err != nil {
				return err
			}
			fe.emit(hhbc.OpAddNewElemC, 0, 0, 0)
		} else {
			if err := fe.expr(v.Keys[i]); err != nil {
				return err
			}
			if err := fe.expr(v.Vals[i]); err != nil {
				return err
			}
			fe.emit(hhbc.OpAddElemC, 0, 0, 0)
		}
	}
	return nil
}

func (fe *funcEmitter) index(v *ast.Index) error {
	// Fast path: base is a local — matches the paper's BaseL/QueryM.
	if base, ok := v.Arr.(*ast.Var); ok {
		if err := fe.expr(v.Key); err != nil {
			return err
		}
		fe.emit(hhbc.OpArrGetL, fe.local(base.Name), 0, 0)
		return nil
	}
	if err := fe.expr(v.Arr); err != nil {
		return err
	}
	if err := fe.expr(v.Key); err != nil {
		return err
	}
	fe.emit(hhbc.OpArrIdx, 0, 0, 0)
	return nil
}

func (fe *funcEmitter) binop(v *ast.Binop) error {
	switch v.Op {
	case "&&", "||":
		return fe.shortCircuit(v)
	case "<=>":
		return fe.spaceship(v)
	case ".":
		return fe.concat(v)
	}
	op, ok := hhbc.BinaryOps[v.Op]
	if !ok {
		return fmt.Errorf("unsupported binary operator %q", v.Op)
	}
	if err := fe.expr(v.L); err != nil {
		return err
	}
	if err := fe.expr(v.R); err != nil {
		return err
	}
	fe.emit(op, 0, 0, 0)
	return nil
}

func (fe *funcEmitter) shortCircuit(v *ast.Binop) error {
	if err := fe.expr(v.L); err != nil {
		return err
	}
	fe.emit(hhbc.OpCastBool, 0, 0, 0)
	fe.emit(hhbc.OpDup, 0, 0, 0)
	var j int
	if v.Op == "&&" {
		j = fe.emit(hhbc.OpJmpZ, 0, 0, 0)
	} else {
		j = fe.emit(hhbc.OpJmpNZ, 0, 0, 0)
	}
	fe.emit(hhbc.OpPopC, 0, 0, 0)
	if err := fe.expr(v.R); err != nil {
		return err
	}
	fe.emit(hhbc.OpCastBool, 0, 0, 0)
	fe.patch(j, fe.pc())
	return nil
}

// spaceship lowers $a <=> $b to a -1/0/1 comparison, evaluating each
// operand exactly once via hidden temps.
func (fe *funcEmitter) spaceship(v *ast.Binop) error {
	t1, t2 := fe.temp(), fe.temp()
	if err := fe.expr(v.L); err != nil {
		return err
	}
	fe.emit(hhbc.OpPopL, t1, 0, 0)
	if err := fe.expr(v.R); err != nil {
		return err
	}
	fe.emit(hhbc.OpPopL, t2, 0, 0)
	fe.emit(hhbc.OpCGetL, t1, 0, 0)
	fe.emit(hhbc.OpCGetL, t2, 0, 0)
	fe.emit(hhbc.OpLt, 0, 0, 0)
	jlt := fe.emit(hhbc.OpJmpNZ, 0, 0, 0)
	fe.emit(hhbc.OpCGetL, t1, 0, 0)
	fe.emit(hhbc.OpCGetL, t2, 0, 0)
	fe.emit(hhbc.OpGt, 0, 0, 0)
	jgt := fe.emit(hhbc.OpJmpNZ, 0, 0, 0)
	fe.emit(hhbc.OpInt, fe.unit.InternInt(0), 0, 0)
	jend1 := fe.emit(hhbc.OpJmp, 0, 0, 0)
	fe.patch(jlt, fe.pc())
	fe.emit(hhbc.OpInt, fe.unit.InternInt(-1), 0, 0)
	jend2 := fe.emit(hhbc.OpJmp, 0, 0, 0)
	fe.patch(jgt, fe.pc())
	fe.emit(hhbc.OpInt, fe.unit.InternInt(1), 0, 0)
	end := fe.pc()
	fe.patch(jend1, end)
	fe.patch(jend2, end)
	return nil
}

func (fe *funcEmitter) unop(v *ast.Unop) error {
	if err := fe.expr(v.E); err != nil {
		return err
	}
	switch v.Op {
	case "-":
		fe.emit(hhbc.OpNeg, 0, 0, 0)
	case "!":
		fe.emit(hhbc.OpNot, 0, 0, 0)
	default:
		return fmt.Errorf("unsupported unary operator %q", v.Op)
	}
	return nil
}

func (fe *funcEmitter) incDec(v *ast.IncDec) error {
	tgt, ok := v.Target.(*ast.Var)
	if !ok {
		// Lower $a[k]++ etc. to a compound assignment; the pushed
		// value is the post value (acceptable deviation for pre/post
		// on complex lvalues).
		op := "+"
		if !v.Inc {
			op = "-"
		}
		return fe.assign(&ast.Assign{Target: v.Target, Op: op,
			Value: &ast.IntLit{Value: 1}}, true)
	}
	var idop int32
	switch {
	case v.Inc && v.Pre:
		idop = hhbc.PreInc
	case v.Inc:
		idop = hhbc.PostInc
	case v.Pre:
		idop = hhbc.PreDec
	default:
		idop = hhbc.PostDec
	}
	fe.emit(hhbc.OpIncDecL, fe.local(tgt.Name), idop, 0)
	return nil
}

// assign emits tgt op= value. If wantValue, one value is left on the
// stack; otherwise the stack is left unchanged.
func (fe *funcEmitter) assign(v *ast.Assign, wantValue bool) error {
	switch tgt := v.Target.(type) {
	case *ast.Var:
		if parts := appended(v, tgt.Name); parts != nil {
			// ConcatL reads the local after its operands, as PHP's
			// ASSIGN_OP does, and extends it in place when it can.
			slot := fe.local(tgt.Name)
			if err := fe.exprs(parts); err != nil {
				return err
			}
			fe.emit(hhbc.OpConcatL, int32(len(parts)), slot, 0)
			if wantValue {
				fe.emit(hhbc.OpCGetL, slot, 0, 0)
			}
			return nil
		}
		if v.Op != "" {
			fe.emit(hhbc.OpCGetL, fe.local(tgt.Name), 0, 0)
			if err := fe.compound(v.Op, v.Value); err != nil {
				return err
			}
		} else if err := fe.expr(v.Value); err != nil {
			return err
		}
		// A plain assignment names its target after its value: locals
		// are numbered in that order (the paper's Figure 3 listing).
		store := hhbc.OpPopL
		if wantValue {
			store = hhbc.OpSetL
		}
		fe.emit(store, fe.local(tgt.Name), 0, 0)
		return nil

	case *ast.Index:
		base, ok := tgt.Arr.(*ast.Var)
		if !ok {
			return fmt.Errorf("assignment into computed array expression not supported")
		}
		slot := fe.local(base.Name)
		if tgt.Key == nil {
			// $a[] = v append form.
			if v.Op != "" {
				return fmt.Errorf("compound assignment to $a[] not supported")
			}
			if err := fe.expr(v.Value); err != nil {
				return err
			}
			if wantValue {
				fe.emit(hhbc.OpDup, 0, 0, 0)
			}
			fe.emit(hhbc.OpArrAppendL, slot, 0, 0)
			return nil
		}
		// Evaluate the key once into a temp.
		keyTmp := fe.temp()
		if err := fe.expr(tgt.Key); err != nil {
			return err
		}
		fe.emit(hhbc.OpPopL, keyTmp, 0, 0)
		if v.Op != "" {
			fe.emit(hhbc.OpCGetL, keyTmp, 0, 0)
			fe.emit(hhbc.OpArrGetL, slot, 0, 0)
			if err := fe.compound(v.Op, v.Value); err != nil {
				return err
			}
		} else if err := fe.expr(v.Value); err != nil {
			return err
		}
		if wantValue {
			fe.emit(hhbc.OpDup, 0, 0, 0)
		}
		fe.emit(hhbc.OpCGetL, keyTmp, 0, 0)
		fe.emit(hhbc.OpArrSetL, slot, 0, 0)
		return nil

	case *ast.Prop:
		if err := fe.expr(tgt.Recv); err != nil {
			return err
		}
		nameIdx := fe.unit.InternString(tgt.Name)
		if v.Op != "" {
			fe.emit(hhbc.OpDup, 0, 0, 0)
			fe.emit(hhbc.OpCGetPropD, nameIdx, 0, 0)
			if err := fe.compound(v.Op, v.Value); err != nil {
				return err
			}
		} else if err := fe.expr(v.Value); err != nil {
			return err
		}
		fe.emit(hhbc.OpSetPropD, nameIdx, 0, 0)
		if !wantValue {
			fe.emit(hhbc.OpPopC, 0, 0, 0)
		}
		return nil

	default:
		return fmt.Errorf("unsupported assignment target %T", v.Target)
	}
}

// Special PHP `$a[] = v` append form arrives as Index with nil key —
// the parser never produces it; appends are written via ArrayLit or
// the append helper below used by assign when Key is nil.

func (fe *funcEmitter) ternary(v *ast.Ternary) error {
	if v.Then == nil {
		// c ?: f — keep c's value when truthy.
		if err := fe.expr(v.Cond); err != nil {
			return err
		}
		fe.emit(hhbc.OpDup, 0, 0, 0)
		j := fe.emit(hhbc.OpJmpNZ, 0, 0, 0)
		fe.emit(hhbc.OpPopC, 0, 0, 0)
		if err := fe.expr(v.Else); err != nil {
			return err
		}
		fe.patch(j, fe.pc())
		return nil
	}
	if err := fe.expr(v.Cond); err != nil {
		return err
	}
	jz := fe.emit(hhbc.OpJmpZ, 0, 0, 0)
	if err := fe.expr(v.Then); err != nil {
		return err
	}
	jend := fe.emit(hhbc.OpJmp, 0, 0, 0)
	fe.patch(jz, fe.pc())
	if err := fe.expr(v.Else); err != nil {
		return err
	}
	fe.patch(jend, fe.pc())
	return nil
}

func (fe *funcEmitter) call(v *ast.Call) error {
	// array_push($a, $v) has reference semantics on $a; lower the
	// common single-value form to the append bytecode.
	if strings.EqualFold(v.Name, "array_push") && len(v.Args) == 2 {
		if base, ok := v.Args[0].(*ast.Var); ok {
			if err := fe.expr(v.Args[1]); err != nil {
				return err
			}
			fe.emit(hhbc.OpArrAppendL, fe.local(base.Name), 0, 0)
			fe.emit(hhbc.OpNull, 0, 0, 0) // call result placeholder
			return nil
		}
	}
	for _, a := range v.Args {
		if err := fe.expr(a); err != nil {
			return err
		}
	}
	nameIdx := fe.unit.InternString(v.Name)
	if fe.isUserFunc(v.Name) {
		fe.emit(hhbc.OpFCallD, int32(len(v.Args)), nameIdx, 0)
		return nil
	}
	if _, ok := runtime.LookupBuiltin(strings.ToLower(v.Name)); ok {
		fe.emit(hhbc.OpFCallBuiltin, int32(len(v.Args)), fe.unit.InternString(strings.ToLower(v.Name)), 0)
		return nil
	}
	// Unknown at emit time: direct call resolved (or fataled) at run
	// time.
	fe.emit(hhbc.OpFCallD, int32(len(v.Args)), nameIdx, 0)
	return nil
}

func (fe *funcEmitter) methodCall(v *ast.MethodCall) error {
	if err := fe.expr(v.Recv); err != nil {
		return err
	}
	for _, a := range v.Args {
		if err := fe.expr(a); err != nil {
			return err
		}
	}
	fe.emit(hhbc.OpFCallObjMethodD, int32(len(v.Args)), fe.unit.InternString(strings.ToLower(v.Name)), 0)
	return nil
}

func (fe *funcEmitter) staticCall(v *ast.StaticCall) error {
	for _, a := range v.Args {
		if err := fe.expr(a); err != nil {
			return err
		}
	}
	full := v.Class + "::" + v.Name
	fe.emit(hhbc.OpFCallD, int32(len(v.Args)), fe.unit.InternString(full), 0)
	return nil
}

func (fe *funcEmitter) newObj(v *ast.New) error {
	fe.emit(hhbc.OpNewObjD, fe.unit.InternString(v.Class), 0, 0)
	fe.emit(hhbc.OpDup, 0, 0, 0)
	for _, a := range v.Args {
		if err := fe.expr(a); err != nil {
			return err
		}
	}
	fe.emit(hhbc.OpFCallObjMethodD, int32(len(v.Args)), fe.unit.InternString("__construct"), 0)
	fe.emit(hhbc.OpPopC, 0, 0, 0)
	return nil
}

func (fe *funcEmitter) isset(v *ast.Isset) error {
	switch t := v.E.(type) {
	case *ast.Var:
		// defined and not null
		fe.emit(hhbc.OpIsTypeL, fe.local(t.Name), isSetBits, 0)
		return nil
	case *ast.Index:
		if base, ok := t.Arr.(*ast.Var); ok {
			if err := fe.expr(t.Key); err != nil {
				return err
			}
			fe.emit(hhbc.OpAKExistsL, fe.local(base.Name), 0, 0)
			return nil
		}
		return fmt.Errorf("isset of computed array expression not supported")
	case *ast.Prop:
		if err := fe.expr(t); err != nil {
			return err
		}
		fe.emit(hhbc.OpFCallBuiltin, 1, fe.unit.InternString("is_null"), 0)
		fe.emit(hhbc.OpNot, 0, 0, 0)
		return nil
	default:
		return fmt.Errorf("unsupported isset target %T", v.E)
	}
}
