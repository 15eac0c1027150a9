package core_test

import "testing"

// TestModesAgreeErrorPaths drives every guest error the JIT's
// out-of-line helpers can raise — each from its own small function, so
// the raising instruction is compiled with operand types that force the
// generic helper — and requires the caught message, the state after the
// catch and the heap balance to match the interpreter in every mode,
// through the profiling → optimized publish. (A failing property write
// stores an int: a counted value the translation popped but the raising
// helper did not consume is the one thing the JIT's throw path still
// does not release — DESIGN.md §6 — so the JIT modes are held to no
// live objects and no over-release, the interpreter to no live strings
// as well.)
func TestModesAgreeErrorPaths(t *testing.T) {
	runModes(t, `
class Box { public $p = 1; function get() { return $this->p; } }
function takesInt(int $x) { return $x + 1; }
function takesFloat(float $f) { return $f * 2; }
function takesBox(Box $b) { return $b->get(); }
function takesNullable(?string $s) { return $s . "!"; }
function idx($a, $k) { return $a[$k]; }
function callFoo($o, $arg) { return $o->foo($arg); }
function app($a) { $a[] = 1; return $a; }
function setIdx($a) { $a["k"] = 1; return $a; }
function thr($v) { throw $v; }
function rd($o) { return $o->p; }
function wr($o, $v) { $o->p = $v; return 1; }
function undef($x) { return NoSuch($x); }
function len2($a, $b) { return strlen($a, $b); }
function len0() { return strlen(); }
function plus($a, $b) { return $a + $b; }
function mkBox() { return new Box(); }
function mkNone() { return new NoSuchClass(); }
function probe($i, $s, $o) {
  $out = "";
  try { $out .= takesInt($s); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= takesBox($i); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= takesInt($o); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= takesNullable($i); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  $out .= takesNullable(null) . takesFloat($i) . takesBox($o) . ";";
  try { $out .= idx($i, $s); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= callFoo($i, $o); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= callFoo($o, new Box()); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= app($s); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= setIdx($i); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { thr(5); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= rd($i); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= wr($i, 1); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= undef(1); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= len2($s, $s); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= len0(); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  $out .= plus($o, $i) . plus("9" . $i, 1) . ";";
  try { $out .= plus([$o], $s); } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  try { $out .= mkBox()->p . mkNone()->p; } catch (Exception $e) { $out .= $e->getMessage() . ";"; }
  return $out . $i . $s . $o->p;
}
for ($k = 0; $k < 6; $k++) { echo probe($k, "abc" . $k, new Box()), "\n"; }
`, 12, true)
}
