package core_test

import (
	"fmt"
	"testing"
)

// A shape fact must not survive an instruction that can release the
// last reference to an object with a destructor: the destructor is
// guest code and may retype the guarded property (DESIGN.md §6, "HHIR
// instruction table", MayReenter). Each program reads $p->x, releases a
// Holder whose __destruct stores a double into it when told to, and
// reads $p->x again; the optimized code is built while the property only
// ever held ints, so a second read that trusts the first read's
// GuardShape adds the bits of 1.5 as an integer.
func dtorShapeProgram(holderArg, release string) string {
	return fmt.Sprintf(`
class P { public $x = 1; }
class Holder {
  public $t; public $flip;
  function __construct($t, $flip) { $this->t = $t; $this->flip = $flip; }
  function __destruct() { if ($this->flip) $this->t->x = 1.5; }
}
class Box { public $h; function __construct($h) { $this->h = $h; } }
function probe($p, $arg) {
  $a = $p->x;
  %s;
  $b = $p->x;
  return $a + $b;
}
function work($n, $flip) {
  $s = 0;
  for ($i = 0; $i < $n; $i++) {
    $p = new P();
    $s += probe($p, %s);
  }
  return $s;
}
echo work(40, false), "\n";
echo work(3, true), "\n";
`, release, holderArg)
}

func TestModesAgreeDestructorRetypesGuardedProp(t *testing.T) {
	for _, tc := range []struct{ name, holderArg, release string }{
		{"DecRef", `new Holder($p, $flip)`, `$arg = null`},
		{"ArrUnsetLocal", `[new Holder($p, $flip)]`, `unset($arg[0])`},
		{"ArrSetLocal", `[new Holder($p, $flip)]`, `$arg[0] = 7`},
		{"StPropSlot", `new Box(new Holder($p, $flip))`, `$arg->h = $p`},
		{"IterFree", `[new Holder($p, $flip)]`, `foreach ($arg as $v) { $v = 0; $arg = 0; break; }`},
		{"IterFreeEnd", `[new Holder($p, $flip)]`, `foreach ($arg as $v) { $v = 0; $arg = 0; }`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runAllModes(t, dtorShapeProgram(tc.holderArg, tc.release), 12)
		})
	}
}
