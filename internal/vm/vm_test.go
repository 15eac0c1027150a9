package vm_test

import (
	"io"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/vm"
)

func engine(t *testing.T, src string, cfg jit.Config, out *strings.Builder) *vm.VM {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(unit, cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWorkersMetersShareNoCacheLine: the exec loop writes its
// worker's Meter at every line head, so two workers made one after the
// other must not have Meters on one cache line.
func TestWorkersMetersShareNoCacheLine(t *testing.T) {
	v := engine(t, `echo 1;`, jit.DefaultConfig(), &strings.Builder{})
	a, b := vm.NewWorker(v.JIT, io.Discard), vm.NewWorker(v.JIT, io.Discard)
	pa, pb := uintptr(unsafe.Pointer(a.Meter)), uintptr(unsafe.Pointer(b.Meter))
	if d := max(pa, pb) - min(pa, pb); d < 64 {
		t.Errorf("two workers' Meters are %d bytes apart (%#x, %#x), want at least a 64-byte line", d, pa, pb)
	}
}

// TestOSRIntoJITedLoop: a long-running loop entered in the
// interpreter must transfer into JITed code at a back edge (the
// tracelet count climbs while the frame is still live).
func TestOSRIntoJITedLoop(t *testing.T) {
	src := `
$sum = 0;
for ($i = 0; $i < 2000; $i++) { $sum += $i; }
echo $sum;
`
	var out strings.Builder
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeTracelet
	v := engine(t, src, cfg, &out)
	if _, err := v.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1999000" {
		t.Fatalf("output %q", out.String())
	}
	// The single invocation must have produced live translations (OSR
	// happened mid-loop; no second call ever warmed the entry).
	if v.JIT.Stats().LiveTranslations == 0 {
		t.Error("OSR never entered JITed code inside the loop")
	}
	if v.JIT.Stats().MachineEnters == 0 {
		t.Error("machine never executed")
	}
}

// TestUnwindingFromJITedCode: exceptions thrown inside JITed code are
// caught by guest handlers in the same frame, and arrive whole. The
// payload case is the regression test for the frame-ownership rule
// (DESIGN.md §6): the inlined constructor's dead locals stay behind in
// the caller's extension slots, and a teardown that released them again
// emptied the array the exception carries ([e10:0:] for [e10:3:x10]).
func TestUnwindingFromJITedCode(t *testing.T) {
	for name, src := range map[string]string{
		"message": `
function risky($i) {
  if ($i % 5 == 0) { throw new Exception("e" . $i); }
  return $i;
}
$log = "";
for ($i = 1; $i <= 20; $i++) {
  try { $log .= risky($i); } catch (Exception $e) { $log .= "[" . $e->getMessage() . "]"; }
}
echo $log;
`,
		"payload": `
class PayloadError extends Exception {
  public $items;
  function __construct($m, $items) { $this->message = $m; $this->items = $items; }
}
function risky($i) {
  if ($i % 5 == 0) { throw new PayloadError("e" . $i, array($i, $i + 1, "x" . $i)); }
  return $i;
}
$log = "";
for ($i = 1; $i <= 20; $i++) {
  try { $log .= risky($i); } catch (PayloadError $e) {
    $log .= "[" . $e->getMessage() . ":" . count($e->items) . ":" . $e->items[2] . "]";
  }
}
echo $log;
`,
	} {
		t.Run(name, func(t *testing.T) {
			var expected strings.Builder
			cfgI := jit.DefaultConfig()
			cfgI.Mode = jit.ModeInterp
			vi := engine(t, src, cfgI, &expected)
			if _, err := vi.RunMain(); err != nil {
				t.Fatal(err)
			}

			var out strings.Builder
			cfg := jit.DefaultConfig()
			cfg.ProfileTrigger = 10
			v := engine(t, src, cfg, &out)
			for i := 0; i < 15; i++ {
				out.Reset()
				if _, err := v.RunMain(); err != nil {
					t.Fatalf("iter %d: %v", i, err)
				}
				if out.String() != expected.String() {
					t.Fatalf("iter %d: %q != %q", i, out.String(), expected.String())
				}
				if h := v.Heap.Snapshot(); h.OverReleases != 0 || h.LiveObjs != 0 || h.LiveStrs != 0 || h.LiveArrs != 0 {
					t.Fatalf("iter %d: %d over-releases, %d live objects, %d live strings, %d live arrays",
						i, h.OverReleases, h.LiveObjs, h.LiveStrs, h.LiveArrs)
				}
			}
		})
	}
}

// TestInlineFrameMaterialization: a side exit inside inlined code must
// materialize the callee frame and produce the interpreter's answer.
// rare() is small enough to inline, and its cold branch (taken only
// for one input) is absent from the profiled region, forcing the exit.
func TestInlineFrameMaterialization(t *testing.T) {
	src := `
function rare($x) {
  if ($x == 999999) { return strtoupper("cold-" . $x); }
  return $x * 2;
}
function driver($n) {
  $acc = 0;
  for ($i = 0; $i < $n; $i++) { $acc += rare($i); }
  return $acc . ":" . rare(999999);
}
echo driver(20);
`
	var expected strings.Builder
	cfgI := jit.DefaultConfig()
	cfgI.Mode = jit.ModeInterp
	vi := engine(t, src, cfgI, &expected)
	if _, err := vi.RunMain(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 30
	v := engine(t, src, cfg, &out)
	for i := 0; i < 20; i++ {
		out.Reset()
		if _, err := v.RunMain(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if out.String() != expected.String() {
			t.Fatalf("iter %d: %q != %q", i, out.String(), expected.String())
		}
	}
	if !v.JIT.Optimized() {
		t.Fatal("optimizer never ran; the test exercised nothing")
	}
}

// TestRecursionDepthLimit: runaway recursion is a guest error in all
// modes, not a host stack overflow.
func TestRecursionDepthLimit(t *testing.T) {
	src := `function down($n) { return down($n + 1); } echo down(0);`
	for _, mode := range []jit.Mode{jit.ModeInterp, jit.ModeRegion} {
		var out strings.Builder
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		cfg.ProfileTrigger = 50
		v := engine(t, src, cfg, &out)
		_, err := v.RunMain()
		if err == nil || !strings.Contains(err.Error(), "depth") {
			t.Errorf("[%v] expected depth error, got %v", mode, err)
		}
	}
}
