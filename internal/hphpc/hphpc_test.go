package hphpc_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/hphpc"
	"repro/internal/jit"
	"repro/internal/parser"
)

func fold(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hphpc.Optimize(p)
	return p
}

func TestConstantFolding(t *testing.T) {
	p := fold(t, `$x = 2 * 3 + 4;`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	lit, ok := v.(*ast.IntLit)
	if !ok || lit.Value != 10 {
		t.Fatalf("2*3+4 folded to %#v", v)
	}
}

func TestStringFolding(t *testing.T) {
	p := fold(t, `$x = "a" . "b" . "c";`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	lit, ok := v.(*ast.StringLit)
	if !ok || lit.Value != "abc" {
		t.Fatalf("concat folded to %#v", v)
	}
}

// TestConcatChainFoldsAdjacentLiterals: literals that end up next to
// each other in a flattened chain are joined, whatever the nesting and
// whatever their kind; operands that are not literals stay in order.
func TestConcatChainFoldsAdjacentLiterals(t *testing.T) {
	p := fold(t, `$x = $a . "x" . 1 . ("y" . $b) . 2.5 . true . "$c-" . "z" . null;`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	var got []string
	for _, o := range ast.ConcatOperands(v, nil) {
		switch o := o.(type) {
		case *ast.Var:
			got = append(got, "$"+o.Name)
		case *ast.StringLit:
			got = append(got, o.Value)
		default:
			got = append(got, fmt.Sprintf("%T", o))
		}
	}
	if want := "$a|x1y|$b|2.51|$c|-z"; strings.Join(got, "|") != want {
		t.Errorf("operands %q, want %q", strings.Join(got, "|"), want)
	}
}

func TestDeadBranchElimination(t *testing.T) {
	p := fold(t, `if (1 > 2) { echo "dead"; } else { echo "live"; }`)
	echo, ok := p.Main[0].(*ast.Echo)
	if !ok {
		t.Fatalf("dead branch not eliminated: %#v", p.Main[0])
	}
	if echo.Args[0].(*ast.StringLit).Value != "live" {
		t.Error("wrong branch survived")
	}
}

func TestWhileFalseRemoved(t *testing.T) {
	p := fold(t, `while (false) { echo "x"; } echo "y";`)
	if len(p.Main) != 1 {
		t.Fatalf("while(false) survived: %d stmts", len(p.Main))
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	p := fold(t, `$y = $x + 0;`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	if _, ok := v.(*ast.Var); !ok {
		t.Errorf("$x + 0 not simplified: %#v", v)
	}
	p = fold(t, `$y = 1 * $x;`)
	v = p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	if _, ok := v.(*ast.Var); !ok {
		t.Errorf("1 * $x not simplified: %#v", v)
	}
}

func TestDivByZeroPreserved(t *testing.T) {
	p := fold(t, `$x = 1 / 0;`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	if _, ok := v.(*ast.Binop); !ok {
		t.Errorf("1/0 must keep the runtime error: %#v", v)
	}
}

func TestTernaryFolding(t *testing.T) {
	p := fold(t, `$x = true ? 1 : 2;`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	lit, ok := v.(*ast.IntLit)
	if !ok || lit.Value != 1 {
		t.Errorf("ternary not folded: %#v", v)
	}
}

func TestCastFolding(t *testing.T) {
	p := fold(t, `$x = (int)3.7;`)
	v := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value
	lit, ok := v.(*ast.IntLit)
	if !ok || lit.Value != 3 {
		t.Errorf("(int)3.7 folded to %#v", v)
	}
}

// TestFoldingAgreesWithRuntime folds every operator over every pair of
// scalar literals and requires the folded program to print what the
// same expression prints when both operands arrive through function
// parameters (so nothing folds), under the interpreter. The cases the
// runtime raises on must survive folding as expressions, so they still
// raise.
func TestFoldingAgreesWithRuntime(t *testing.T) {
	lits := []string{"true", "false", "0", "1", "5", "-3", "1.0", "2.5", `"5"`, `"a"`, `""`}
	ops := []string{"+", "-", "*", "/", "%", ".", "==", "!=", "===", "<", "<=", ">", ">="}
	interpCfg := jit.DefaultConfig()
	interpCfg.Mode = jit.ModeInterp
	for _, op := range ops {
		var src strings.Builder
		src.WriteString(`
function show($r) {
  if (is_int($r)) { echo "int:"; }
  if (is_float($r)) { echo "float:"; }
  if (is_bool($r)) { echo "bool:"; }
  if (is_string($r)) { echo "string:"; }
  echo $r, "\n";
}
function ev($a, $b) { return $a ` + op + ` $b; }
`)
		for _, l := range lits {
			for _, r := range lits {
				fmt.Fprintf(&src, "try { show(%s %s %s); } catch (Exception $e) { echo \"raised:\", $e->getMessage(), \"\\n\"; }\n", l, op, r)
				fmt.Fprintf(&src, "try { show(ev(%s, %s)); } catch (Exception $e) { echo \"raised:\", $e->getMessage(), \"\\n\"; }\n", l, r)
			}
		}
		out, err := core.Run(src.String(), interpCfg)
		if err != nil {
			t.Fatalf("operator %s: %v", op, err)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != 2*len(lits)*len(lits) {
			t.Fatalf("operator %s: %d output lines, want %d", op, len(lines), 2*len(lits)*len(lits))
		}
		i := 0
		for _, l := range lits {
			for _, r := range lits {
				folded, evaluated := lines[i], lines[i+1]
				i += 2
				if folded != evaluated {
					t.Errorf("%s %s %s folds to %q, the runtime answers %q", l, op, r, folded, evaluated)
				}
				// A literal pair folds to a literal exactly when the
				// runtime does not raise.
				p := fold(t, fmt.Sprintf("$x = %s %s %s;", l, op, r))
				_, kept := p.Main[0].(*ast.ExprStmt).E.(*ast.Assign).Value.(*ast.Binop)
				if raises := strings.HasPrefix(evaluated, "raised:"); kept != raises {
					t.Errorf("%s %s %s: kept as an expression = %v, runtime raises = %v", l, op, r, kept, raises)
				}
			}
		}
	}
}
