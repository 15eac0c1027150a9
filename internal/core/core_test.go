package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/runtime"
)

// modes returns one config per execution mode (Figure 8's bars).
func modes() map[string]jit.Config {
	mk := func(m jit.Mode) jit.Config {
		c := jit.DefaultConfig()
		c.Mode = m
		c.ProfileTrigger = 20 // small programs: trigger early
		return c
	}
	return map[string]jit.Config{
		"interp":    mk(jit.ModeInterp),
		"tracelet":  mk(jit.ModeTracelet),
		"profiling": mk(jit.ModeProfiling),
		"region":    mk(jit.ModeRegion),
	}
}

// heapImbalance describes what a request left wrong on a guest heap,
// "" for a balanced one: between requests nothing is live and no tier
// has released a reference it did not own. strsMayLeak waives the live
// strings and arrays, for JITed code that raises out of a helper: the
// borrowed operands of the raising instruction (a string, the array
// base of `$a[k]`) keep a reference (DESIGN.md §6, "The throw path's
// one asymmetry").
func heapImbalance(heap *runtime.Heap, strsMayLeak bool) string {
	h := heap.Snapshot()
	if h.LiveObjs == 0 && (h.LiveStrs == 0 && h.LiveArrs == 0 || strsMayLeak) && h.OverReleases == 0 {
		return ""
	}
	return fmt.Sprintf("heap unbalanced: %d live objects, %d live strings, %d live arrays, %d over-releases",
		h.LiveObjs, h.LiveStrs, h.LiveArrs, h.OverReleases)
}

// runAllModes executes src repeatedly in every mode and checks all
// runs agree with the interpreter and leave the heap balanced.
func runAllModes(t *testing.T, src string, iterations int) (interpOut string) {
	t.Helper()
	return runModes(t, src, iterations, false)
}

// runModes is runAllModes for a program whose JITed code raises out of
// helpers (jitLeaksStrs: see heapImbalance; the interpreter is always
// held to a fully balanced heap). It returns what the interpreter
// printed: every request's output followed by "|".
func runModes(t *testing.T, src string, iterations int, jitLeaksStrs bool) (interpOut string) {
	t.Helper()
	var want string
	unitSrc := src
	order := []string{"interp", "tracelet", "profiling", "region"}
	allCfg := modes()
	for _, name := range order {
		cfg := allCfg[name]
		unit, err := core.Compile(unitSrc, core.CompileOptions{})
		if err != nil {
			t.Fatalf("[%s] compile: %v", name, err)
		}
		var all strings.Builder
		eng, err := core.NewEngine(unit, cfg, &all)
		if err != nil {
			t.Fatalf("[%s] engine: %v", name, err)
		}
		verifyAllocations(t, eng)
		for i := 0; i < iterations; i++ {
			if _, err := eng.RunRequest(&all); err != nil {
				t.Fatalf("[%s] iteration %d: %v", name, i, err)
			}
			if msg := heapImbalance(eng.Heap(), jitLeaksStrs && name != "interp"); msg != "" {
				t.Fatalf("[%s] iteration %d: %s", name, i, msg)
			}
			all.WriteString("|")
		}
		got := all.String()
		if name == "interp" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("[%s] output diverges from interpreter:\n got: %.300q\nwant: %.300q",
				name, got, want)
		}
	}
	return want
}

func TestModesAgreeArithLoop(t *testing.T) {
	runAllModes(t, `
function work($n) {
  $sum = 0;
  for ($i = 0; $i < $n; $i++) {
    $sum = $sum + $i * 2 - 1;
  }
  return $sum;
}
echo work(50), "\n";
`, 12)
}

func TestModesAgreeAvgPositive(t *testing.T) {
	// The paper's running example, with mixed int/double arrays to
	// force the retranslation chains of Figure 4.
	runAllModes(t, `
function avgPositive($arr) {
  $sum = 0;
  $n = 0;
  $size = count($arr);
  for ($i = 0; $i < $size; $i++) {
    $elem = $arr[$i];
    if ($elem > 0) {
      $sum = $sum + $elem;
      $n++;
    }
  }
  if ($n == 0) {
    throw new Exception("no positive numbers");
  }
  return $sum / $n;
}
echo avgPositive([1, 2, 3, -4]), " ";
echo avgPositive([1.5, -2.0, 3.25]), " ";
echo avgPositive([1, 2.5, -3]), "\n";
`, 12)
}

func TestModesAgreeStrings(t *testing.T) {
	runAllModes(t, `
function shout($s, $times) {
  $out = "";
  for ($i = 0; $i < $times; $i++) {
    $out = $out . strtoupper($s) . "!";
  }
  return $out;
}
echo shout("hey", 3), "\n", strlen(shout("abc", 5)), "\n";
`, 10)
}

func TestModesAgreeObjects(t *testing.T) {
	runAllModes(t, `
class Shape {
  public $name = "shape";
  function area() { return 0; }
  function describe() { return $this->name . ":" . $this->area(); }
}
class Rect extends Shape {
  public $w = 0;
  public $h = 0;
  function __construct($w, $h) { $this->w = $w; $this->h = $h; $this->name = "rect"; }
  function area() { return $this->w * $this->h; }
}
class Circle extends Shape {
  public $r = 0;
  function __construct($r) { $this->r = $r; $this->name = "circle"; }
  function area() { return 3 * $this->r * $this->r; }
}
$shapes = [new Rect(2, 3), new Circle(4), new Rect(1, 5)];
$total = 0;
foreach ($shapes as $s) {
  $total += $s->area();
}
echo $total, " ", $shapes[0]->describe(), "\n";
`, 12)
}

func TestModesAgreeExceptions(t *testing.T) {
	runAllModes(t, `
function risky($x) {
  if ($x % 3 == 0) { throw new RuntimeException("bad " . $x); }
  return $x * 2;
}
$log = "";
for ($i = 1; $i <= 9; $i++) {
  try {
    $log .= risky($i);
  } catch (RuntimeException $e) {
    $log .= "[" . $e->getMessage() . "]";
  }
}
echo $log, "\n";
`, 10)
}

func TestModesAgreeArraysCOW(t *testing.T) {
	runAllModes(t, `
function stamp($arr, $v) {
  $arr[] = $v;      // COW: caller's array unchanged
  return count($arr);
}
$base = [1, 2, 3];
$n1 = stamp($base, 10);
$n2 = stamp($base, 20);
echo $n1, $n2, count($base), "\n";
$m = ["a" => 1];
$m["b"] = 2;
foreach ($m as $k => $v) { echo $k, $v; }
echo "\n";
`, 10)
}

func TestModesAgreeDestructors(t *testing.T) {
	runAllModes(t, `
class Tracker {
  public $id = 0;
  function __construct($id) { $this->id = $id; }
  function __destruct() { echo "~", $this->id, ";"; }
}
function spin($n) {
  $t = new Tracker($n);
  return $n * 2;   // $t dies here
}
for ($i = 0; $i < 4; $i++) { echo spin($i), ";"; }
echo "\n";
`, 8)
}

// TestModesAgreeResurrectingDestructor: a destructor that stores $this
// keeps the object: it stays readable through the new reference, is not
// destructed a second time, and is freed when that reference dies.
func TestModesAgreeResurrectingDestructor(t *testing.T) {
	runAllModes(t, `
class Keeper { public $kept = null; }
class Phoenix {
  public $name = "";
  public $k = null;
  function __construct($name, $k) { $this->name = $name; $this->k = $k; }
  function __destruct() { echo "~", $this->name, ";"; $this->k->kept = $this; }
}
function burn($k, $i) {
  $p = new Phoenix("p" . $i, $k);
  return $i;   // $p dies here and resurrects itself into $k
}
$k = new Keeper();
for ($i = 0; $i < 4; $i++) {
  echo burn($k, $i), ":", $k->kept->name, ";";
  $k->kept->k = null;   // break the cycle so the last one can die
}
$k->kept = null;
echo "\n";
`, 8)
}

func TestModesAgreeRecursion(t *testing.T) {
	runAllModes(t, `
function fib($n) { return $n < 2 ? $n : fib($n-1) + fib($n-2); }
echo fib(12), "\n";
`, 8)
}

func TestModesAgreePolymorphicLoop(t *testing.T) {
	// Forces guard relaxation decisions: $x flips between int and
	// double across iterations.
	runAllModes(t, `
function mix($data) {
  $acc = 0.0;
  foreach ($data as $x) {
    $acc = $acc + $x;
  }
  return $acc;
}
$data = [1, 2.5, 3, 4.5, 5, 6.5];
echo mix($data), "\n";
`, 12)
}

func TestModesAgreeTypeHints(t *testing.T) {
	runAllModes(t, `
function dist(float $x, float $y) { return sqrt($x*$x + $y*$y); }
echo dist(3.0, 4.0), " ", dist(3, 4), "\n";
`, 8)
}

func TestRegionJITIsFasterThanInterp(t *testing.T) {
	src := `
function hot($n) {
  $sum = 0;
  for ($i = 0; $i < $n; $i++) { $sum += $i; }
  return $sum;
}
echo hot(300), "\n";
`
	cycles := map[string]uint64{}
	for name, cfg := range modes() {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(unit, cfg, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for i := 0; i < 30; i++ {
			c, err := eng.RunRequest(&strings.Builder{})
			if err != nil {
				t.Fatalf("[%s]: %v", name, err)
			}
			last = c
		}
		cycles[name] = last
	}
	if cycles["region"] >= cycles["interp"] {
		t.Errorf("region JIT (%d cycles) not faster than interpreter (%d)",
			cycles["region"], cycles["interp"])
	}
	if cycles["tracelet"] >= cycles["interp"] {
		t.Errorf("tracelet JIT (%d) not faster than interpreter (%d)",
			cycles["tracelet"], cycles["interp"])
	}
	t.Logf("steady-state cycles: %v", cycles)
}

func TestOptimizedCodeIsPublished(t *testing.T) {
	src := `
function tick($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }
echo tick(100);
`
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 10
	eng, err := core.NewEngine(unit, cfg, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.RunRequest(&strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.ProfilingTranslations == 0 {
		t.Error("no profiling translations were made")
	}
	if st.OptimizedTranslations == 0 {
		t.Error("global trigger never published optimized translations")
	}
	if st.OptimizeRuns != 1 {
		t.Errorf("expected exactly one global retranslation, got %d", st.OptimizeRuns)
	}
	t.Logf("stats: %+v", st)
}

func ExampleRun() {
	out, _ := core.Run(`echo "hello from the region JIT";`, jit.DefaultConfig())
	fmt.Println(out)
	// Output: hello from the region JIT
}
