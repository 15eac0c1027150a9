package emitter_test

import (
	"testing"

	"repro/internal/emitter"
	"repro/internal/hhbc"
	"repro/internal/parser"
)

func emit(t *testing.T, src string) *hhbc.Unit {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := emitter.Emit(prog)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestEmitterOutputVerifies: every construct the emitter supports must
// produce verifier-clean bytecode.
func TestEmitterOutputVerifies(t *testing.T) {
	srcs := []string{
		`$x = 1 + 2; echo $x;`,
		`function f($a, $b = 3) { return $a + $b; } echo f(1);`,
		`for ($i = 0; $i < 5; $i++) { if ($i == 2) { continue; } if ($i == 4) { break; } }`,
		`foreach ([1,2] as $k => $v) { echo $k, $v; }`,
		`$a = []; $a[] = 1; $a["k"] = 2; $a[0] += 5; unset($a["k"]); echo count($a);`,
		`class C { public $p = 0; function m() { return $this->p; } } $c = new C(); echo $c->m();`,
		`switch (2) { case 1: echo "a"; case 2: echo "b"; break; case 3: echo "c"; default: echo "d"; }`,
		`echo 1 && 0, 1 || 0, !1;`,
		`$s = "x"; $s .= "y"; echo "$s!", '$s';`,
		`echo isset($u), isset($u2[3]);`,
		`echo 5 <=> 3 === 1 ? "" : "", (int)"12", (float)3, (bool)"", (string)7;`,
	}
	for _, src := range srcs {
		u := emit(t, src)
		if err := hhbc.VerifyUnit(u); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestStatementAssignUsesPopL: the emitter must produce the paper's
// Figure 3 pattern — statement-level assignment stores with PopL, not
// SetL+PopC.
func TestStatementAssignUsesPopL(t *testing.T) {
	u := emit(t, `function f($a, $b) { $c = $a + $b; return $c; } echo f(1, 2);`)
	f, _ := u.FuncByName("f")
	sawPopL, sawSetL := false, false
	for _, in := range f.Instrs {
		switch in.Op {
		case hhbc.OpPopL:
			sawPopL = true
		case hhbc.OpSetL:
			sawSetL = true
		}
	}
	if !sawPopL {
		t.Error("statement assignment did not use PopL")
	}
	if sawSetL {
		t.Error("statement assignment wastefully used SetL")
	}
}

// ops lists f's opcodes, assertions aside.
func ops(f *hhbc.Func) []hhbc.Op {
	var out []hhbc.Op
	for _, in := range f.Instrs {
		out = append(out, in.Op)
	}
	return out
}

// TestConcatChainsFlatten: a `.` chain or an interpolated string is its
// operands and one ConcatN, however it is parenthesised, and an append
// to a local is its operands and one ConcatL — which reads the local
// itself, after them.
func TestConcatChainsFlatten(t *testing.T) {
	u := emit(t, `function f($a, $b) {
  $r = $a . ("-" . $b) . "$a/$b";
  $r .= $a . $b;
  $r = $r . "!";
  $b = $a . $b;
  return $y = ($r .= 1);
}`)
	f, _ := u.FuncByName("f")
	want := []hhbc.Op{
		hhbc.OpCGetL, hhbc.OpString, hhbc.OpCGetL, hhbc.OpCGetL, hhbc.OpString, hhbc.OpCGetL, hhbc.OpConcatN, hhbc.OpPopL,
		hhbc.OpCGetL, hhbc.OpCGetL, hhbc.OpConcatL,
		hhbc.OpString, hhbc.OpConcatL,
		hhbc.OpCGetL, hhbc.OpCGetL, hhbc.OpConcatN, hhbc.OpPopL, // not an append: $b is the second operand
		hhbc.OpInt, hhbc.OpConcatL, hhbc.OpCGetL, hhbc.OpSetL, hhbc.OpRetC,
		hhbc.OpNull, hhbc.OpRetC,
	}
	got := ops(f)
	if len(got) != len(want) {
		t.Fatalf("emitted\n%s", hhbc.Disassemble(u, f))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instruction %d is %s, want %s:\n%s", i, got[i], want[i], hhbc.Disassemble(u, f))
		}
	}
	if n := f.Instrs[6]; n.A != 6 {
		t.Errorf("the chain's ConcatN takes %d operands, want 6", n.A)
	}
	if l := f.Instrs[10]; l.A != 2 || l.B != 2 {
		t.Errorf("ConcatL %d L:%d, want 2 operands onto $r (L:2)", l.A, l.B)
	}
}

// TestAppendFormKeepsReadOrder: `$x = $x . e1 . e2` has read $x before
// e2 runs, ConcatL reads it after: the form is an append only while no
// operand past the first assigns. `.=` reads last whatever follows.
func TestAppendFormKeepsReadOrder(t *testing.T) {
	for src, wantL := range map[string]bool{
		`$x = $x . $a . f($a);`:       true,
		`$x = $x . ($x = "b");`:       true, // one operand: $x is fetched as the operator runs
		`$x = $x . ($x = "b") . $a;`:  true,
		`$x = $x . $a . ($x = "b");`:  false,
		`$x = $x . $a . f([$x++]);`:   false,
		`$x = $x . $a . "{$a}" . $a;`: true,
		`$x .= $a . ($x = "b");`:      true,
	} {
		u := emit(t, `function f($a) { $x = "p"; `+src+` return $x; }`)
		f, _ := u.FuncByName("f")
		gotL := false
		for _, in := range f.Instrs {
			gotL = gotL || in.Op == hhbc.OpConcatL
		}
		if gotL != wantL {
			t.Errorf("%s: ConcatL emitted = %v, want %v:\n%s", src, gotL, wantL, hhbc.Disassemble(u, f))
		}
	}
}

// TestCompoundConcatOnElementsAndProps: the targets ConcatL does not
// cover take the read-modify-write sequence, with one ConcatN over the
// old value and the flattened right-hand side.
func TestCompoundConcatOnElementsAndProps(t *testing.T) {
	u := emit(t, `function f($a, $o, $k) { $a[$k] .= "x" . $k; $o->p .= $k . "y" . $k; }`)
	f, _ := u.FuncByName("f")
	var counts []int32
	for _, in := range f.Instrs {
		switch in.Op {
		case hhbc.OpConcatN:
			counts = append(counts, in.A)
		case hhbc.OpConcatL:
			t.Errorf("ConcatL on a non-local target:\n%s", hhbc.Disassemble(u, f))
		}
	}
	if len(counts) != 2 || counts[0] != 3 || counts[1] != 4 {
		t.Errorf("ConcatN counts %v, want [3 4]:\n%s", counts, hhbc.Disassemble(u, f))
	}
}

// TestDenseSwitchGetsTable: 3+ dense int cases become a Switch table.
func TestDenseSwitchGetsTable(t *testing.T) {
	u := emit(t, `
function f($n) { switch ($n) { case 1: return 1; case 2: return 2; case 3: return 3; } return 0; }
echo f(2);`)
	f, _ := u.FuncByName("f")
	found := false
	for _, in := range f.Instrs {
		if in.Op == hhbc.OpSwitch {
			found = true
		}
	}
	if !found || len(f.Switches) != 1 {
		t.Error("dense switch not lowered to a jump table")
	}
	// Sparse/string switches fall back to a compare chain.
	u2 := emit(t, `switch ($n) { case "a": echo 1; break; case "b": echo 2; break; case "c": echo 3; }`)
	m := u2.Funcs[u2.Main]
	for _, in := range m.Instrs {
		if in.Op == hhbc.OpSwitch {
			t.Error("string switch wrongly used a jump table")
		}
	}
}

// TestEHTableCoversTry: the try body's range maps to the handler.
func TestEHTableCoversTry(t *testing.T) {
	u := emit(t, `try { echo 1; } catch (Exception $e) { echo 2; }`)
	m := u.Funcs[u.Main]
	if len(m.EHTable) != 1 {
		t.Fatalf("EH entries = %d", len(m.EHTable))
	}
	eh := m.EHTable[0]
	if eh.Start >= eh.End || eh.Handler < eh.End {
		t.Errorf("odd EH layout: %+v", eh)
	}
	if m.HandlerFor(eh.Start) != eh.Handler {
		t.Error("HandlerFor misses the protected range")
	}
	if m.HandlerFor(eh.Handler) == eh.Handler {
		t.Error("handler protects itself")
	}
}

func TestErrorsSurface(t *testing.T) {
	bad := []string{
		`break;`,
		`continue;`,
		`class C { public $p = f(); }`, // non-literal default
	}
	for _, src := range bad {
		prog, err := parser.Parse(src)
		if err != nil {
			continue // parser may reject too; fine
		}
		if _, err := emitter.Emit(prog); err == nil {
			t.Errorf("no emit error for %q", src)
		}
	}
}
