// Package hphpc implements the AST-level ahead-of-time optimizations
// inherited from the HipHop compiler: constant folding and
// propagation of literal expressions, algebraic simplification, and
// dead-branch elimination on constant conditions (Section 2.3).
package hphpc

import (
	"repro/internal/ast"
	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/types"
)

// Optimize rewrites prog in place.
func Optimize(prog *ast.Program) {
	for _, f := range prog.Funcs {
		f.Body = optStmts(f.Body)
	}
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			m.Body = optStmts(m.Body)
		}
	}
	prog.Main = optStmts(prog.Main)
}

func optStmts(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		out = append(out, optStmt(s)...)
	}
	return out
}

// optStmt returns the replacement statements (possibly eliminating or
// flattening s).
func optStmt(s ast.Stmt) []ast.Stmt {
	switch st := s.(type) {
	case *ast.ExprStmt:
		st.E = Fold(st.E)
		return []ast.Stmt{st}
	case *ast.Echo:
		for i := range st.Args {
			st.Args[i] = Fold(st.Args[i])
		}
		return []ast.Stmt{st}
	case *ast.Return:
		if st.E != nil {
			st.E = Fold(st.E)
		}
		return []ast.Stmt{st}
	case *ast.If:
		st.Cond = Fold(st.Cond)
		st.Then = optStmts(st.Then)
		st.Else = optStmts(st.Else)
		// Dead-branch elimination on constant conditions.
		if b, ok := constBool(st.Cond); ok {
			if b {
				return st.Then
			}
			return st.Else
		}
		return []ast.Stmt{st}
	case *ast.While:
		st.Cond = Fold(st.Cond)
		if b, ok := constBool(st.Cond); ok && !b {
			return nil
		}
		st.Body = optStmts(st.Body)
		return []ast.Stmt{st}
	case *ast.For:
		for i := range st.Init {
			st.Init[i] = Fold(st.Init[i])
		}
		if st.Cond != nil {
			st.Cond = Fold(st.Cond)
		}
		for i := range st.Step {
			st.Step[i] = Fold(st.Step[i])
		}
		st.Body = optStmts(st.Body)
		return []ast.Stmt{st}
	case *ast.Foreach:
		st.Arr = Fold(st.Arr)
		st.Body = optStmts(st.Body)
		return []ast.Stmt{st}
	case *ast.Throw:
		st.E = Fold(st.E)
		return []ast.Stmt{st}
	case *ast.Try:
		st.Body = optStmts(st.Body)
		for i := range st.Catches {
			st.Catches[i].Body = optStmts(st.Catches[i].Body)
		}
		return []ast.Stmt{st}
	case *ast.Switch:
		st.Subject = Fold(st.Subject)
		for i := range st.Cases {
			st.Cases[i].Value = Fold(st.Cases[i].Value)
			st.Cases[i].Body = optStmts(st.Cases[i].Body)
		}
		st.Default = optStmts(st.Default)
		return []ast.Stmt{st}
	default:
		return []ast.Stmt{s}
	}
}

// litValue is the runtime value a scalar literal denotes, and valueLit
// the literal denoting a scalar value: folding evaluates literals with
// the runtime's own operators, so a folded expression cannot disagree
// with the same expression evaluated at run time.
func litValue(e ast.Expr) (runtime.Value, bool) {
	switch v := e.(type) {
	case *ast.IntLit:
		return runtime.Int(v.Value), true
	case *ast.FloatLit:
		return runtime.Dbl(v.Value), true
	case *ast.BoolLit:
		return runtime.Bool(v.Value), true
	case *ast.StringLit:
		return runtime.StrV(runtime.InternStr(v.Value)), true
	case *ast.NullLit:
		return runtime.Null(), true
	}
	return runtime.Value{}, false
}

func valueLit(v runtime.Value) ast.Expr {
	switch v.Kind {
	case types.KInt:
		return &ast.IntLit{Value: v.AsInt()}
	case types.KDbl:
		return &ast.FloatLit{Value: v.AsDbl()}
	case types.KBool:
		return &ast.BoolLit{Value: v.AsBool()}
	case types.KStr:
		return &ast.StringLit{Value: v.AsStr().Data}
	default:
		return &ast.NullLit{}
	}
}

func constBool(e ast.Expr) (bool, bool) {
	v, ok := litValue(e)
	return v.Bool(), ok
}

// Fold recursively constant-folds an expression.
func Fold(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.Binop:
		if v.Op == "." {
			return foldConcat(v)
		}
		v.L = Fold(v.L)
		v.R = Fold(v.R)
		return foldBinop(v)
	case *ast.Unop:
		v.E = Fold(v.E)
		return foldUnop(v)
	case *ast.Ternary:
		v.Cond = Fold(v.Cond)
		if v.Then != nil {
			v.Then = Fold(v.Then)
		}
		v.Else = Fold(v.Else)
		if b, ok := constBool(v.Cond); ok {
			if b {
				if v.Then != nil {
					return v.Then
				}
				return v.Cond
			}
			return v.Else
		}
		return v
	case *ast.Assign:
		v.Value = Fold(v.Value)
		return v
	case *ast.Index:
		v.Arr = Fold(v.Arr)
		if v.Key != nil {
			v.Key = Fold(v.Key)
		}
		return v
	case *ast.Call:
		for i := range v.Args {
			v.Args[i] = Fold(v.Args[i])
		}
		return v
	case *ast.MethodCall:
		v.Recv = Fold(v.Recv)
		for i := range v.Args {
			v.Args[i] = Fold(v.Args[i])
		}
		return v
	case *ast.StaticCall:
		for i := range v.Args {
			v.Args[i] = Fold(v.Args[i])
		}
		return v
	case *ast.New:
		for i := range v.Args {
			v.Args[i] = Fold(v.Args[i])
		}
		return v
	case *ast.ArrayLit:
		for i := range v.Vals {
			if v.Keys[i] != nil {
				v.Keys[i] = Fold(v.Keys[i])
			}
			v.Vals[i] = Fold(v.Vals[i])
		}
		return v
	case *ast.Cast:
		v.E = Fold(v.E)
		return foldCast(v)
	case *ast.Interp:
		return foldConcat(v)
	default:
		return e
	}
}

// foldConcat folds the operands of a `.` chain or an interpolated
// string and joins the literals that end up next to each other
// (`$a . "x" . "y"` is `$a . "xy"`): a string literal when nothing else
// is left, else the chain over what is, which the emitter turns into
// one ConcatN.
func foldConcat(e ast.Expr) ast.Expr {
	var out []ast.Expr
	for _, o := range ast.ConcatOperands(e, nil) {
		o = Fold(o)
		if lit, ok := litValue(o); ok && len(out) > 0 {
			if prev, ok := litValue(out[len(out)-1]); ok {
				joined := runtime.Concat(runtime.NewHeap(), []runtime.Value{prev, lit})
				out[len(out)-1] = valueLit(joined)
				continue
			}
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return e
	}
	chain := out[0]
	for _, o := range out[1:] {
		chain = &ast.Binop{Op: ".", L: chain, R: o}
	}
	return chain
}

// foldBinop evaluates an operator over two literals. Where the runtime
// would raise (division or modulo by zero) the expression is kept, so
// it still raises when it runs.
func foldBinop(v *ast.Binop) ast.Expr {
	l, lok := litValue(v.L)
	r, rok := litValue(v.R)
	op, isOp := hhbc.BinaryOps[v.Op]
	if !lok || !rok || !isOp {
		return foldAlgebraic(v)
	}
	res, err := interp.Binop(runtime.NewHeap(), op, l, r)
	if err != nil {
		return v
	}
	return valueLit(res)
}

// foldAlgebraic applies identities with one constant operand.
func foldAlgebraic(v *ast.Binop) ast.Expr {
	if ri, ok := v.R.(*ast.IntLit); ok {
		switch {
		case (v.Op == "+" || v.Op == "-") && ri.Value == 0:
			return v.L
		case v.Op == "*" && ri.Value == 1:
			return v.L
		}
	}
	if li, ok := v.L.(*ast.IntLit); ok {
		switch {
		case v.Op == "+" && li.Value == 0:
			return v.R
		case v.Op == "*" && li.Value == 1:
			return v.R
		}
	}
	return v
}

func foldUnop(v *ast.Unop) ast.Expr {
	e, ok := litValue(v.E)
	if !ok {
		return v
	}
	switch v.Op {
	case "-":
		return valueLit(runtime.Neg(e))
	case "!":
		return &ast.BoolLit{Value: !e.Bool()}
	}
	return v
}

func foldCast(v *ast.Cast) ast.Expr {
	e, ok := litValue(v.E)
	if !ok {
		return v
	}
	switch v.To {
	case "int":
		return &ast.IntLit{Value: e.ToInt()}
	case "float":
		return &ast.FloatLit{Value: e.ToDbl()}
	case "bool":
		return &ast.BoolLit{Value: e.Bool()}
	case "string":
		return &ast.StringLit{Value: e.ToString()}
	}
	return v
}
