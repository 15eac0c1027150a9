package core_test

import (
	"fmt"
	"strings"
	"testing"
)

// TestModesAgreeRecycledArrays: a freed array's box goes back to the
// guest heap with its element storage, and the next array of its layout
// takes both (DESIGN.md §6, "Guest heap"). Every case frees arrays and
// builds new ones in the same request, in every mode and for 12
// requests on one heap, against the output PHP gives, with the heap
// held balanced after each request (runAllModes): a reused box must
// carry nothing of its last life — elements, count, next key, layout.
func TestModesAgreeRecycledArrays(t *testing.T) {
	const calls, iterations = 4, 12
	cases := []struct {
		name, decls string
		want        func(i int) string
	}{
		{"a list built by appends, freed and rebuilt", `
function build($n, $k) { $a = []; for ($j = 0; $j < $n; $j++) { $a[] = $j * $k; } return $a; }
function f($i) {
  $out = "";
  for ($r = 0; $r < 3; $r++) {
    $a = build(80, $i + $r);
    $out .= count($a) . ":" . $a[79] . ":" . $a[0] . ",";
  }
  $a = null;
  $b = build(5, $i);
  $b[] = "x";
  return $out . count($b) . ":" . implode(" ", $b);
}`,
			func(i int) string {
				var out string
				for r := 0; r < 3; r++ {
					out += fmt.Sprintf("80:%d:0,", 79*(i+r))
				}
				return out + fmt.Sprintf("6:0 %d %d %d %d x", i, 2*i, 3*i, 4*i)
			}},
		{"a freed box serves only its own layout", `
function f($i) {
  $p = [$i, $i + 1, $i + 2];
  $p = null;
  $m = ["a" => $i];
  $m["b"] = 2; $m[] = 3;
  $q = [];
  $q[] = "q" . $i;
  $m = null;
  $r = []; $r[] = 1; $r[] = 2;
  $s = ["z" => 1];
  $s[] = "first";
  return count($q) . $q[0] . "|" . implode(",", array_keys($r)) . "|" . implode(",", array_keys($s)) . "|" . count($s) . implode(",", $s);
}`,
			func(i int) string { return fmt.Sprintf("1q%d|0,1|z,0|21,first", i) }},
		{"a reused packed box escalates to mixed", `
function f($i) {
  $a = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
  $a = null;
  $b = [$i, $i];
  $b["k"] = "v";
  $b[] = "next";
  $c = [7];
  $c[] = 8;
  return implode(",", array_keys($b)) . "=" . implode(",", $b) . "|" . implode(",", $c);
}`,
			func(i int) string { return fmt.Sprintf("0,1,k,2=%d,%d,v,next|7,8", i, i) }},
		{"foreach over an array the body replaces", `
function f($i) {
  $a = [$i, $i + 1, $i + 2];
  $out = "";
  foreach ($a as $v) { $a = []; $a[] = $v * 10; $out .= $v . ","; }
  return $out . count($a) . ":" . $a[0];
}`,
			func(i int) string { return fmt.Sprintf("%d,%d,%d,1:%d", i, i+1, i+2, (i+2)*10) }},
		{"arrays freed and built by destructors while an array is released", `
class Holder {
  public $items = [];
  public $name = "";
  function __construct($n) { $this->name = $n; }
  function __destruct() {
    $tmp = [$this->name, "gone", count($this->items)];
    $this->items = null;
    echo implode(" ", $tmp), ";";
  }
}
function f($i) {
  $list = [];
  for ($j = 0; $j < 3; $j++) { $h = new Holder("h" . $j); $h->items = [$j, $j + $i, "x"]; $list[] = $h; }
  $h = null;
  $list = null;
  $after = [$i];
  return "done" . $after[0];
}`,
			func(i int) string { return fmt.Sprintf("h0 gone 3;h1 gone 3;h2 gone 3;done%d", i) }},
		{"nested arrays in object properties", `
class Node { public $children = []; public $tags = []; }
function f($i) {
  $root = new Node();
  for ($j = 0; $j < 4; $j++) {
    $n = new Node();
    $n->tags = ["id" => $j, "name" => "n" . $j];
    $kids = $n->children;
    $kids[] = [$j, [$i, $j]];
    $n->children = $kids;
    $all = $root->children;
    $all[] = $n;
    $root->children = $all;
  }
  $kids = null; $all = null; $n = null;
  $out = "";
  foreach ($root->children as $c) {
    $tags = $c->tags; $kids = $c->children; $pair = $kids[0][1];
    $out .= $tags["name"] . "=" . $pair[0] . "/" . $pair[1] . ",";
  }
  return $out . count($root->children);
}`,
			func(i int) string {
				var out string
				for j := 0; j < 4; j++ {
					out += fmt.Sprintf("n%d=%d/%d,", j, i, j)
				}
				return out + "4"
			}},
		{"copy-on-write of a reused box", `
function f($i) {
  $a = [1, 2, 3]; $a = null;
  $b = [$i, $i + 1];
  $c = $b;
  $c[] = 99;
  $b[0] = -1;
  $m = ["x" => 1, "y" => 2]; $m[] = 3; $m = null;
  $n = ["p" => $i];
  $o = $n;
  $o["q"] = 5;
  $n[] = 7;
  return implode(",", $b) . "|" . implode(",", $c) . "|" . implode(",", array_keys($n)) . "|" . implode(",", array_keys($o)) . "|" . implode(",", $n);
}`,
			func(i int) string {
				return fmt.Sprintf("-1,%d|%d,%d,99|p,0|p,q|%d,7", i+1, i, i+1, i)
			}},
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
				t.Errorf("the interpreter printed\n%.600q\nwant %d times\n%.600q", got, iterations, want.String())
			}
		})
	}
}
