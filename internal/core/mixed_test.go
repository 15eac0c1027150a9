package core_test

import (
	"fmt"
	"strings"
	"testing"
)

// orderedMap computes what PHP prints for a mixed array: keys in
// insertion order, an overwrite keeping its place, an unset and re-add
// moving the key to the end.
type orderedMap struct {
	keys []string
	vals map[string]string
}

func (m *orderedMap) set(k, v string) {
	if m.vals == nil {
		m.vals = map[string]string{}
	}
	if _, ok := m.vals[k]; !ok {
		m.keys = append(m.keys, k)
	}
	m.vals[k] = v
}

func (m *orderedMap) unset(k string) {
	if _, ok := m.vals[k]; ok {
		delete(m.vals, k)
		for i, key := range m.keys {
			if key == k {
				m.keys = append(m.keys[:i], m.keys[i+1:]...)
				break
			}
		}
	}
}

// pairs renders the map as the guest's `foreach ($a as $k => $v) {
// $out .= $k . "=" . $v . ","; }` does.
func (m *orderedMap) pairs() string {
	var sb strings.Builder
	for _, k := range m.keys {
		sb.WriteString(k + "=" + m.vals[k] + ",")
	}
	return sb.String()
}

// mixedLiteral is PHP source for a literal of n entries under
// alternating string and int keys ("k0", 7, "k2", 21, …), entry j
// holding $i * 100 + j.
func mixedLiteral(n int) string {
	parts := make([]string, n)
	for j := range parts {
		key := fmt.Sprintf("%q", fmt.Sprint("k", j))
		if j%2 == 1 {
			key = fmt.Sprint(j * 7)
		}
		parts[j] = fmt.Sprintf("%s => $i * 100 + %d", key, j)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// TestModesAgreeMixedArrays: mixed arrays keep insertion order in a
// slice of entries with an index only past 8 of them, and hold their
// string keys as counted values (DESIGN.md §6, "Arrays"). Every case
// crosses one of those lines in every mode, against the output PHP
// gives, with the heap held balanced after each request (runAllModes).
func TestModesAgreeMixedArrays(t *testing.T) {
	const calls, iterations = 6, 12
	cases := []struct {
		name, decls string
		want        func(i int) string
	}{
		{"literals across the index threshold", `
function lookups($a, $n) {
  $s = 0;
  for ($j = 0; $j < $n; $j++) {
    if ($j % 2 == 0) { $s += $a["k" . $j]; } else { $s += $a[$j * 7]; }
  }
  return count($a) . ":" . $s . ":" . (array_key_exists("k1", $a) ? "y" : "n") . (array_key_exists(7, $a) ? "y" : "n");
}
function f($i) {
  $a4 = ` + mixedLiteral(4) + `; $a9 = ` + mixedLiteral(9) + `;
  $a17 = ` + mixedLiteral(17) + `; $a33 = ` + mixedLiteral(33) + `;
  return lookups($a4, 4) . " " . lookups($a9, 9) . " " . lookups($a17, 17) . " " . lookups($a33, 33);
}`,
			func(i int) string {
				var out []string
				for _, n := range []int{4, 9, 17, 33} {
					out = append(out, fmt.Sprintf("%d:%d:ny", n, n*100*i+n*(n-1)/2))
				}
				return strings.Join(out, " ")
			}},
		{"unset then re-add moves the key to the end", `
function pairs($a) { $out = ""; foreach ($a as $k => $v) { $out .= $k . "=" . $v . ","; } return $out; }
function f($i) {
  $a = ["x" => 1, "y" => 2, "z" => 3, $i + 10 => 4];
  unset($a["x"]); $a["x"] = 5; unset($a[$i + 10]); $a[$i + 10] = 6;
  $b = [];
  for ($j = 0; $j < 12; $j++) { $b["d" . $j] = $j; }
  unset($b["d3"]); $b["d3"] = $i; unset($b["d11"]); unset($b["nope"]); $b["d11"] = "again";
  return pairs($a) . "|" . pairs($b) . count($b);
}`,
			func(i int) string {
				var a, b orderedMap
				a.set("y", "2")
				a.set("z", "3")
				a.set("x", "5")
				a.set(fmt.Sprint(i+10), "6")
				for j := 0; j < 12; j++ {
					if j != 3 && j != 11 {
						b.set(fmt.Sprint("d", j), fmt.Sprint(j))
					}
				}
				b.set("d3", fmt.Sprint(i))
				b.set("d11", "again")
				return a.pairs() + "|" + b.pairs() + "12"
			}},
		{"unset inside foreach over the same array", `
function f($i) {
  $a = ["a" => 1, "b" => 2, "c" => 3];
  for ($j = 0; $j < 10; $j++) { $a["n" . $j] = $j + $i; }
  $out = "";
  foreach ($a as $k => $v) { unset($a[$k]); unset($a["c"]); $out .= $k . $v; }
  $small = ["p" => 1, "q" => 2];
  foreach ($small as $k => $v) { unset($small["q"]); $out .= "," . $k; }
  return $out . ":" . count($a) . ":" . count($small);
}`,
			func(i int) string {
				out := "a1b2c3"
				for j := 0; j < 10; j++ {
					out += fmt.Sprintf("n%d%d", j, j+i)
				}
				return out + ",p,q:0:1"
			}},
		{"copy-on-write of an indexed array, both copies mutated", `
function f($i) {
  $a = [];
  for ($j = 0; $j < 20; $j++) { $a["k" . $j] = $j; }
  $b = $a;
  $b["k3"] = 100 + $i; unset($b["k4"]); $b["new"] = 1;
  $a["k5"] = 200 + $i; unset($a["k6"]); $a["other"] = 2;
  $c = $b; unset($c["k0"]);
  return count($a) . "," . count($b) . "," . count($c) . "," . $a["k3"] . "," . $b["k3"] . "," . $a["k5"] . "," . $b["k5"] . "," .
    implode(" ", array_keys($a)) . "," . implode(" ", array_keys($b)) . "," . (array_key_exists("k0", $b) ? "y" : "n");
}`,
			func(i int) string {
				var a, b []string
				for j := 0; j < 20; j++ {
					if j != 6 {
						a = append(a, fmt.Sprint("k", j))
					}
					if j != 4 {
						b = append(b, fmt.Sprint("k", j))
					}
				}
				a, b = append(a, "other"), append(b, "new")
				return fmt.Sprintf("20,20,19,3,%d,%d,5,%s,%s,y", 100+i, 200+i, strings.Join(a, " "), strings.Join(b, " "))
			}},
		{"packed escalates to mixed past 8 elements", `
function f($i) {
  $a = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
  $a["s"] = $i; $a[] = 10; unset($a[2]); $a[] = 11;
  $p = [$i, $i, $i, $i, $i, $i, $i, $i, $i, $i, $i];
  unset($p[3]); $p[] = "x";
  $sum = 0;
  foreach ($a as $k => $v) { $sum += $v; }
  return count($a) . ":" . implode(",", array_keys($a)) . ":" . $sum . "|" . count($p) . ":" . implode(",", array_keys($p)) . ":" . $p[11];
}`,
			func(i int) string {
				return fmt.Sprintf("12:0,1,3,4,5,6,7,8,9,s,10,11:%d|11:0,1,2,4,5,6,7,8,9,10,11:x", 0+1+3+4+5+6+7+8+9+i+10+11)
			}},
		{"unset of a list's last element keeps its next key", `
function f($i) {
  $a = [$i, $i + 1, $i + 2];
  unset($a[2]); $a[] = "x";
  $b = [$i];
  unset($b[0]); $b[] = "y"; $b[] = "z";
  return implode(",", array_keys($a)) . "=" . implode(",", $a) . "|" . implode(",", array_keys($b)) . "=" . implode(",", $b);
}`,
			func(i int) string { return fmt.Sprintf("0,1,3=%d,%d,x|1,2=y,z", i, i+1) }},
		{"negative and huge int keys", `
function pairs($a) { $out = ""; foreach ($a as $k => $v) { $out .= $k . "=" . $v . ","; } return $out; }
function f($i) {
  $a = [-5 => "m", 9223372036854775807 => "x", -1 => "n", 3 => "t"];
  $a[-$i] = "neg" . $i;
  $b = [-3 => "a"]; $b[5] = "b"; $b[] = "c"; $b[1099511627776] = "big"; $b[] = "after"; $b[-9223372036854775807] = "low";
  for ($j = 0; $j < 8; $j++) { $b[-100 * $j] = $j; }
  return pairs($a) . "|" . $a[9223372036854775807] . $a[-5] . "|" . pairs($b) . $b[1099511627777] . $b[-700];
}`,
			func(i int) string {
				var a, b orderedMap
				a.set("-5", "m")
				a.set("9223372036854775807", "x")
				a.set("-1", "n")
				a.set("3", "t")
				a.set(fmt.Sprint(-i), fmt.Sprint("neg", i))
				b.set("-3", "a")
				b.set("5", "b")
				b.set("6", "c")
				b.set("1099511627776", "big")
				b.set("1099511627777", "after")
				b.set("-9223372036854775807", "low")
				for j := 0; j < 8; j++ {
					b.set(fmt.Sprint(-100*j), fmt.Sprint(j))
				}
				return a.pairs() + "|x" + a.vals["-5"] + "|" + b.pairs() + "after7"
			}},
		{"a key, then .= on the string it came from", `
function f($i) {
  $s = "key" . $i; $s .= "a";
  $m = [];
  $m[$s] = 1; $s .= "b"; $m[$s] = 2; $s .= "c";
  for ($j = 0; $j < 9; $j++) { $m["pad" . $j] = $j; }
  $t = "big" . $i; $t .= "!"; $m[$t] = 3; $t .= "?";
  $out = "";
  foreach ($m as $k => $v) { $k .= "~"; $out .= $k; }
  foreach ($m as $k => $v) { if ($v > 0 && $v < 4) { $out .= "," . $k . "=" . $v; } }
  return $out . "|" . $s . "|" . $t . "|" . $m["key" . $i . "a"] . $m["key" . $i . "ab"] . $m["big" . $i . "!"] .
    (array_key_exists($s, $m) ? "y" : "n") . (array_key_exists($t, $m) ? "y" : "n");
}`,
			func(i int) string {
				keys := []string{fmt.Sprint("key", i, "a"), fmt.Sprint("key", i, "ab")}
				for j := 0; j < 9; j++ {
					keys = append(keys, fmt.Sprint("pad", j))
				}
				keys = append(keys, fmt.Sprint("big", i, "!"))
				out := strings.Join(keys, "~") + "~"
				out += fmt.Sprintf(",%s=1,%s=2,pad1=1,pad2=2,pad3=3,%s=3", keys[0], keys[1], keys[11])
				return fmt.Sprintf("%s|key%dabc|big%d!?|123nn", out, i, i)
			}},
		{"array_keys, implode, in_array and + on mixed arrays", `
function f($i) {
  $a = ["x" => $i, "y" => "s" . $i, 7 => 1.5];
  for ($j = 0; $j < 10; $j++) { $a["g" . $j] = $j; }
  $b = ["y" => "other", "z" => $i, 7 => 0];
  $u = $a + $b; $v = $b + $a;
  $names = ["p" => "s" . $i, "q" => "t"];
  for ($j = 0; $j < 9; $j++) { $names["n" . $j] = "name" . $j; }
  return implode(",", array_keys($u)) . "|" . implode(",", $v) . "|" .
    (in_array("s" . $i, $names) ? "in" : "out") . (in_array("name8", $names) ? "in" : "out") . (in_array("zz", $names) ? "in" : "out") .
    "|" . count($u) . "," . count($v) . "|" . implode("", array_keys($names));
}`,
			func(i int) string {
				keysU := "x,y,7,g0,g1,g2,g3,g4,g5,g6,g7,g8,g9,z"
				v := fmt.Sprintf("other,%d,0,%d,0,1,2,3,4,5,6,7,8,9", i, i)
				return keysU + "|" + v + "|ininout|14,14|pqn0n1n2n3n4n5n6n7n8"
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
