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
		allLit := true
		out := ""
		for i := range v.Parts {
			v.Parts[i] = Fold(v.Parts[i])
			if s, ok := v.Parts[i].(*ast.StringLit); ok {
				out += s.Value
			} else {
				allLit = false
			}
		}
		if allLit {
			return &ast.StringLit{Value: out}
		}
		return v
	default:
		return e
	}
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
