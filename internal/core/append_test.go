package core_test

import (
	"fmt"
	"strings"
	"testing"
)

// TestModesAgreeAppendInPlace: `.=` on a local extends the string where
// it lies when nothing else references it (ConcatL, DESIGN.md §6
// "Strings built in place") — so every way a second reference can exist
// is tried, in every mode, against the output PHP gives. The modes are
// also held to each other and to a balanced heap (runAllModes). Each
// program calls its function often enough to be region-compiled.
func TestModesAgreeAppendInPlace(t *testing.T) {
	const calls, iterations = 6, 12
	cases := []struct {
		name, decls string
		want        func(i int) string
	}{
		{"alias survives", `
function f($i) { $s = "a" . $i; $a = $s; $s .= "x"; $s .= "y"; return $a . "," . $s; }`,
			func(i int) string { return fmt.Sprintf("a%d,a%dxy", i, i) }},
		{"self append", `
function f($i) { $s = "ab" . $i; $s .= $s; $s .= $s . "-" . $s; return $s; }`,
			func(i int) string { d := fmt.Sprintf("ab%dab%d", i, i); return d + d + "-" + d }},
		{"onto non-strings", `
function f($i) {
  $l = "lit"; $l .= $i; $n = 5; $n .= "x"; $z = null; $z .= "z"; $u .= "u" . $i;
  $b = true; $b .= "!"; $d = 1.5; $d .= "d"; $a = [1]; $a .= $i;
  return $l . "|" . $n . "|" . $z . "|" . $u . "|" . $b . "|" . $d . "|" . $a;
}`,
			func(i int) string { return fmt.Sprintf("lit%d|5x|z|u%d|1!|1.5d|Array%d", i, i, i) }},
		{"held by a property, an element and a key", `
class Box { public $p = ""; }
function f($i) {
  $s = "k" . $i; $s .= "a";
  $o = new Box(); $o->p = $s; $s .= "b";
  $arr = [$s]; $s .= "c";
  $m = []; $m[$s] = 1; $s .= "d"; $s .= "e";
  $keys = ""; foreach ($m as $k => $v) { $keys .= $k; }
  return $o->p . "," . $arr[0] . "," . $keys . "," . $s;
}`,
			func(i int) string { return fmt.Sprintf("k%da,k%dab,k%dabc,k%dabcde", i, i, i, i) }},
		{"value wanted", `
function f($i) { $x = "v" . $i; $y = ($x .= "a"); $x .= "b"; return $y . "," . $x; }`,
			func(i int) string { return fmt.Sprintf("v%da,v%dab", i, i) }},
		// `.=` reads its target after the whole right side, `$y . e1` as
		// the operator runs; `$z . e1 . e2` has read $z before e2 assigns
		// it, so that form must not become a ConcatL.
		{"local read after its operands", `
function f($i) {
  $x = "a" . $i; $x .= ($x = "b") . "c";
  $y = "p"; $y = $y . ($y = $i) . "q";
  $z = "p"; $z = $z . "m" . ($z = $i);
  $w = "p"; $w = $w . "m" . ($w .= "n");
  $v = $i; $v = $v . "-" . $v++;
  return $x . $y . "|" . $z . "|" . $w . "|" . $v;
}`,
			func(i int) string { return fmt.Sprintf("bbc%d%dq|pm%d|pmpn|%d-%d", i, i, i, i, i) }},
		// The left operand is a reference the translation borrows from the
		// local (CGetL's IncRef pairs with the DecRef after the ConcatN and
		// RCE drops both) — unless ConcatAppend is fCOWStr, which keeps the
		// IncRef: without it the append sees a count of 1 and writes the
		// bytes the left operand is about to read. An Int is appended so
		// that no DecRef of an operand stands between the two.
		{"borrowed alias", `
function two($a, $b) { return $a . "/" . $b; }
function f($i) { $s = "s" . $i; $s .= "1"; $r = $s . "/" . ($s .= $i); return $r . "," . two($s, $s .= $i); }`,
			func(i int) string { return fmt.Sprintf("s%d1/s%d1%d,s%d1%d/s%d1%d%d", i, i, i, i, i, i, i, i) }},
		{"inlined callee appends to its parameter", `
function addx($p) { $p .= "x"; $p .= "y"; return $p; }
function f($i) { $s = "p" . $i; $s .= "q"; $r = addx($s); $s .= "z"; return $s . "," . $r; }`,
			func(i int) string { return fmt.Sprintf("p%dqz,p%dqxy", i, i) }},
		{"loop, interpolation and $x = $x . e", `
function f($i) {
  $out = "";
  for ($j = 0; $j < 40; $j++) { $out .= "item" . $j . ";"; $out = $out . $i; $out = "$out,"; }
  return strlen($out) . ":" . substr($out, 0, 16) . substr($out, 300, 8);
}`,
			func(i int) string {
				out := ""
				for j := 0; j < 40; j++ {
					out += fmt.Sprintf("item%d;%d,", j, i)
				}
				return fmt.Sprintf("%d:%s%s", len(out), out[:16], out[300:308])
			}},
		{"replaces an object with a destructor", `
class D { function __destruct() { echo "[d]"; } }
function f($i) { $o = new D(); $o .= "x" . $i; return $o; }`,
			func(i int) string { return fmt.Sprintf("[d]Object(D)x%d", i) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := c.decls + fmt.Sprintf("\nfor ($i = 0; $i < %d; $i++) { echo f($i), \"\\n\"; }\n", calls)
			var want strings.Builder
			for i := 0; i < calls; i++ {
				want.WriteString(c.want(i) + "\n")
			}
			got := runAllModes(t, src, iterations)
			if got != strings.Repeat(want.String()+"|", iterations) {
				t.Errorf("the interpreter printed\n%.400q\nwant %d times\n%q", got, iterations, want.String())
			}
		})
	}
}
