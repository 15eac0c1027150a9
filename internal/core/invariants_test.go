package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
)

// TestHeapBalancedAcrossModes checks the reference-counting
// invariants the RCE pass must preserve: after every request, no
// guest objects are left alive, and the number of destructor runs and
// COW copies matches the interpreter exactly in every JIT mode.
func TestHeapBalancedAcrossModes(t *testing.T) {
	src := `
class Res {
  public $id = 0;
  function __construct($id) { $this->id = $id; }
  function __destruct() { echo ""; }
}
function churn($n) {
  $acc = 0;
  $arr = [];
  for ($i = 0; $i < $n; $i++) {
    $r = new Res($i);
    $arr[] = $r->id;
    $copy = $arr;        // shared
    $copy[] = -1;        // COW
    $acc += count($copy) + strlen("s" . $i);
  }
  return $acc;
}
echo churn(15), "\n";
`
	type obs struct {
		destructs, cows uint64
		live            int64
	}
	results := map[string]obs{}
	for _, mode := range []jit.Mode{jit.ModeInterp, jit.ModeTracelet, jit.ModeRegion} {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		cfg.ProfileTrigger = 15
		eng, err := core.NewEngine(unit, cfg, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := eng.RunRequest(&strings.Builder{}); err != nil {
				t.Fatalf("[%v] %v", mode, err)
			}
			if msg := heapImbalance(eng.Heap(), false); msg != "" {
				t.Fatalf("[%v] request %d: %s", mode, i, msg)
			}
		}
		h0 := eng.Heap().Snapshot()
		if _, err := eng.RunRequest(&strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		h1 := eng.Heap().Snapshot()
		results[mode.String()] = obs{
			destructs: h1.Destructs - h0.Destructs,
			cows:      h1.CowCopies - h0.CowCopies,
			live:      h1.LiveObjs,
		}
	}
	ref := results["interp"]
	if ref.destructs == 0 || ref.cows == 0 {
		t.Fatalf("reference run observed nothing: %+v", ref)
	}
	for mode, o := range results {
		if o.destructs != ref.destructs {
			t.Errorf("[%s] destructor runs %d != interpreter's %d (refcounting semantics broken)",
				mode, o.destructs, ref.destructs)
		}
		if o.cows != ref.cows {
			t.Errorf("[%s] COW copies %d != interpreter's %d",
				mode, o.cows, ref.cows)
		}
	}
}

// TestRCEReducesRefcountTraffic: with RCE on, strictly fewer refcount
// operations execute in steady state, with identical observable
// behaviour.
func TestRCEReducesRefcountTraffic(t *testing.T) {
	src := `
function scan($arr) {
  $n = count($arr);
  $sum = 0;
  for ($i = 0; $i < $n; $i++) { $sum += $arr[$i]; }
  return $sum;
}
$data = [];
for ($i = 0; $i < 40; $i++) { $data[] = $i; }
echo scan($data), "\n";
`
	measure := func(rce bool) uint64 {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := jit.DefaultConfig()
		cfg.EnableRCE = rce
		cfg.ProfileTrigger = 15
		eng, err := core.NewEngine(unit, cfg, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := eng.RunRequest(&strings.Builder{}); err != nil {
				t.Fatal(err)
			}
		}
		h0 := eng.Heap().Snapshot()
		if _, err := eng.RunRequest(&strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		h1 := eng.Heap().Snapshot()
		return (h1.IncRefs - h0.IncRefs) + (h1.DecRefs - h0.DecRefs)
	}
	with, without := measure(true), measure(false)
	if with >= without {
		t.Errorf("RCE did not reduce refcount ops: %d with vs %d without", with, without)
	}
}
