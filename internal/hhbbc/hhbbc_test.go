package hhbbc_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/workload"
)

func compile(t *testing.T, src string, skip bool) *hhbc.Unit {
	t.Helper()
	u, err := core.Compile(src, core.CompileOptions{SkipHHBBC: skip})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestInsertsAssertions: hhbbc must communicate inferred local types
// through AssertRATL instructions (the paper's Figure 3 pattern).
func TestInsertsAssertions(t *testing.T) {
	src := `
function f($n) {
  $sum = 0;
  for ($i = 0; $i < $n; $i++) { $sum = $sum + 1; }
  return $sum;
}
echo f(5);`
	with := compile(t, src, false)
	without := compile(t, src, true)
	count := func(u *hhbc.Unit) int {
		f, _ := u.FuncByName("f")
		n := 0
		for _, in := range f.Instrs {
			if in.Op == hhbc.OpAssertRATL {
				n++
			}
		}
		return n
	}
	if count(without) != 0 {
		t.Fatal("unoptimized unit already has assertions")
	}
	if count(with) == 0 {
		t.Error("hhbbc inserted no AssertRATL")
	}
	// $sum and $i are provably Int through the loop.
	f, _ := with.FuncByName("f")
	dis := hhbc.Disassemble(with, f)
	if !strings.Contains(dis, "AssertRATL") || !strings.Contains(dis, "Int") {
		t.Errorf("expected Int assertions in:\n%s", dis)
	}
}

// TestAssertionsPreserveSemantics: optimized and unoptimized bytecode
// produce identical output across varied programs.
func TestAssertionsPreserveSemantics(t *testing.T) {
	programs := []string{
		`function f($n){$s=0;for($i=0;$i<$n;$i++){$s+=$i;}return $s;} echo f(10);`,
		`function g($a){$t="";foreach($a as $k=>$v){$t.=$k.":".$v.";";}return $t;} echo g(["x"=>1,"y"=>2]);`,
		`function h($x){try{ if($x>2){throw new Exception("big");} return $x;}catch(Exception $e){return -1;}} echo h(1),h(5);`,
		`function r($n){ return $n<2?$n:r($n-1)+r($n-2);} echo r(10);`,
		`$m=["a"=>1]; $m["b"]=2; unset($m["a"]); echo count($m);`,
	}
	for _, src := range programs {
		a, err := core.Run(src, defaultJIT())
		if err != nil {
			t.Fatalf("%q: %v", src[:20], err)
		}
		unit := compile(t, src, true)
		var sb strings.Builder
		eng, err := core.NewEngine(unit, defaultJIT(), &sb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunRequest(&sb); err != nil {
			t.Fatalf("%q (no hhbbc): %v", src[:20], err)
		}
		if sb.String() != a {
			t.Errorf("hhbbc changed semantics: %q vs %q", a, sb.String())
		}
	}
}

// TestJumpRemapping: insertion must keep all jump targets valid (the
// verifier re-runs after optimization and catches bad remaps).
func TestJumpRemapping(t *testing.T) {
	src := `
function z($n) {
  switch ($n) { case 1: return 10; case 2: return 20; case 3: return 30; default: break; }
  $x = 0;
  while ($x < $n) { $x++; if ($x == 3) { continue; } if ($x > 8) { break; } }
  foreach ([1,2,3] as $v) { $x += $v; }
  try { throw new Exception("e"); } catch (Exception $e) { $x++; }
  return $x;
}
echo z(5);`
	u := compile(t, src, false)
	if err := hhbc.VerifyUnit(u); err != nil {
		t.Fatalf("remapped unit fails verification: %v", err)
	}
	out, err := core.Run(src, defaultJIT())
	if err != nil || out == "" {
		t.Fatalf("run after remap: %q %v", out, err)
	}
}

func defaultJIT() jit.Config { return jit.Config{Mode: jit.ModeInterp} }

// TestUnitKeepsNoAppendSlack: a compiled unit lives as long as the
// process, so every function's instructions leave the AOT pipeline in a
// slice of exactly their length — with and without asserts inserted.
func TestUnitKeepsNoAppendSlack(t *testing.T) {
	src, _ := workload.Combined()
	u := compile(t, src, false)
	asserted := 0
	for _, f := range u.Funcs {
		if cap(f.Instrs) != len(f.Instrs) {
			t.Errorf("%s: %d instructions held in a slice of capacity %d", f.FullName(), len(f.Instrs), cap(f.Instrs))
		}
		for _, in := range f.Instrs {
			if in.Op == hhbc.OpAssertRATL {
				asserted++
				break
			}
		}
	}
	if asserted == 0 || asserted == len(u.Funcs) {
		t.Fatalf("%d of %d functions have asserts; the site no longer covers both paths", asserted, len(u.Funcs))
	}
}
