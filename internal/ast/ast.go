// Package ast defines the abstract syntax tree for the PHP-subset
// source language. The parser builds it; hphpc optimizes it; the
// emitter lowers it to HHBC.
package ast

// Node is the common interface of all AST nodes.
type Node interface {
	Pos() (line, col int)
}

type position struct{ Line, Col int }

func (p position) Pos() (int, int) { return p.Line, p.Col }

// SetPos records the source position; it is promoted to every node.
func (p *position) SetPos(line, col int) { p.Line, p.Col = line, col }

// ---------- Expressions ----------

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	position
	Value int64
}

// FloatLit is a float literal.
type FloatLit struct {
	position
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	position
	Value string
}

// BoolLit is true/false.
type BoolLit struct {
	position
	Value bool
}

// NullLit is null.
type NullLit struct{ position }

// Var is a variable reference $name.
type Var struct {
	position
	Name string
}

// ThisExpr is $this.
type ThisExpr struct{ position }

// ArrayLit is [a, b] or ['k' => v, ...].
type ArrayLit struct {
	position
	Keys  []Expr // nil entry = append-style element
	Vals  []Expr
	IsMap bool // any explicit key present
}

// Index is $e[k].
type Index struct {
	position
	Arr Expr
	Key Expr
}

// Binop is a binary operator expression.
type Binop struct {
	position
	Op   string // "+", "-", ..., "==", "===", "&&", "."
	L, R Expr
}

// Unop is a unary operator expression.
type Unop struct {
	position
	Op string // "-", "!", "~"
	E  Expr
}

// IncDec is ++$x / $x++ / --$x / $x--.
type IncDec struct {
	position
	Target Expr // Var, Index, or Prop
	Inc    bool
	Pre    bool
}

// Assign is target = value (Op == "") or compound (Op == "+", ".", ...).
type Assign struct {
	position
	Target Expr // Var, Index, Prop
	Op     string
	Value  Expr
}

// Ternary is c ? t : f (t may be nil for the ?: form).
type Ternary struct {
	position
	Cond, Then, Else Expr
}

// Call is a free function call name(args).
type Call struct {
	position
	Name string
	Args []Expr
}

// MethodCall is $obj->name(args).
type MethodCall struct {
	position
	Recv Expr
	Name string
	Args []Expr
}

// StaticCall is Cls::name(args) — resolved to a direct function call.
type StaticCall struct {
	position
	Class string
	Name  string
	Args  []Expr
}

// New is new Cls(args).
type New struct {
	position
	Class string
	Args  []Expr
}

// Prop is $obj->name.
type Prop struct {
	position
	Recv Expr
	Name string
}

// InstanceOf is $e instanceof Cls.
type InstanceOf struct {
	position
	E     Expr
	Class string
}

// Isset is isset($x) / isset($a[k]).
type Isset struct {
	position
	E Expr
}

// Cast is (int)$e etc.
type Cast struct {
	position
	To string // "int", "float", "string", "bool"
	E  Expr
}

// Interp is a double-quoted string with embedded variables, lowered
// to concatenation by the emitter.
type Interp struct {
	position
	Parts []Expr // StringLit or Var parts
}

// ConcatOperands appends to out the operands of e as a concatenation:
// a `.` chain or an interpolated string flattened left to right (the
// operator is associative and renders each operand on its own), e
// itself when it is neither.
func ConcatOperands(e Expr, out []Expr) []Expr {
	switch v := e.(type) {
	case *Binop:
		if v.Op == "." {
			return ConcatOperands(v.R, ConcatOperands(v.L, out))
		}
	case *Interp:
		for _, p := range v.Parts {
			out = ConcatOperands(p, out)
		}
		return out
	}
	return append(out, e)
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*NullLit) exprNode()    {}
func (*Var) exprNode()        {}
func (*ThisExpr) exprNode()   {}
func (*ArrayLit) exprNode()   {}
func (*Index) exprNode()      {}
func (*Binop) exprNode()      {}
func (*Unop) exprNode()       {}
func (*IncDec) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Ternary) exprNode()    {}
func (*Call) exprNode()       {}
func (*MethodCall) exprNode() {}
func (*StaticCall) exprNode() {}
func (*New) exprNode()        {}
func (*Prop) exprNode()       {}
func (*InstanceOf) exprNode() {}
func (*Isset) exprNode()      {}
func (*Cast) exprNode()       {}
func (*Interp) exprNode()     {}

// ---------- Statements ----------

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	position
	E Expr
}

// Echo prints each argument.
type Echo struct {
	position
	Args []Expr
}

// Return returns an optional value.
type Return struct {
	position
	E Expr // may be nil
}

// If with optional else (ElseIf chains are nested Ifs).
type If struct {
	position
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
}

// While loop.
type While struct {
	position
	Cond Expr
	Body []Stmt
}

// For loop: for (init; cond; step) body.
type For struct {
	position
	Init []Expr
	Cond Expr // may be nil (true)
	Step []Expr
	Body []Stmt
}

// Foreach over an array: foreach ($arr as [$k =>] $v) body.
type Foreach struct {
	position
	Arr    Expr
	KeyVar string // "" if absent
	ValVar string
	Body   []Stmt
}

// Break / Continue with level 1.
type Break struct{ position }
type Continue struct{ position }

// Throw statement.
type Throw struct {
	position
	E Expr
}

// Try with catch clauses.
type Try struct {
	position
	Body    []Stmt
	Catches []Catch
}

// Catch clause: catch (Cls $v) { ... }.
type Catch struct {
	Class string
	Var   string
	Body  []Stmt
}

// Switch over an expression with constant-int cases.
type Switch struct {
	position
	Subject Expr
	Cases   []SwitchCase
	Default []Stmt // nil if absent
}

// SwitchCase is one case arm.
type SwitchCase struct {
	Value Expr
	Body  []Stmt
}

// Unset statement: unset($x) or unset($a[k]).
type Unset struct {
	position
	E Expr
}

func (*ExprStmt) stmtNode() {}
func (*Echo) stmtNode()     {}
func (*Return) stmtNode()   {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Foreach) stmtNode()  {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Throw) stmtNode()    {}
func (*Try) stmtNode()      {}
func (*Switch) stmtNode()   {}
func (*Unset) stmtNode()    {}

// ---------- Declarations ----------

// Param is a function parameter with optional shallow type hint and
// default.
type Param struct {
	Name     string
	TypeHint string // "", "int", "float", "string", "bool", "array", or class
	Nullable bool
	Default  Expr // literal only; nil if required
}

// FuncDecl is a function or method declaration.
type FuncDecl struct {
	position
	Name   string
	Params []Param
	Body   []Stmt
	// Method metadata (set when inside a ClassDecl).
	Class  string
	Static bool
}

// PropDecl is a class property with optional default literal.
type PropDecl struct {
	Name    string
	Default Expr
}

// ClassDecl declares a class or interface.
type ClassDecl struct {
	position
	Name        string
	Parent      string
	Ifaces      []string
	IsInterface bool
	Props       []PropDecl
	Methods     []*FuncDecl
}

// Program is a parsed source file: declarations plus top-level
// statements (the pseudo-main).
type Program struct {
	Funcs   []*FuncDecl
	Classes []*ClassDecl
	Main    []Stmt
}
