// Frame recycling (DESIGN.md §6, "Host representation"): vm.call takes
// every frame from the env's free list and hands it back on return.
// These tests drive the frame-lifetime edges — deep recursion and the
// depth error, exceptions unwinding through destructors, side exits
// that materialize inlined callee frames, contained translation
// faults, several workers over one JIT — differentially against the
// interpreter, and then look inside the pool: the guest heap must
// balance and no parked frame may still hold a guest value.
package core_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/runtime"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Each program defines entry(), deterministic and self-contained, so
// every call prints the same bytes in every mode.
const (
	srcDeepRecursion = `
function depth($n) { if ($n == 0) { return 0; } return 1 + depth($n - 1); }
function down($n) { return 1 + down($n + 1); }
function entry() {
  echo depth(400), " ";
  try { echo down(0); } catch (Exception $e) { echo $e->getMessage(); }
  return depth(30);
}`

	srcThrowThroughDestructors = `
class Guard {
  public $name = "";
  function __construct($n) { $this->name = $n; }
  function __destruct() { echo "~", $this->name, " "; }
}
function f3($x) {
  $g = new Guard("f3");
  if ($x % 2 == 1) { throw new Exception("boom" . $x); }
  return $x;
}
function f2($x, $pad = 2) {
  $g = new Guard("f2");
  $arr = ["a" => $x, "b" => new Guard("f2.elem")];
  $s = 0;
  foreach ($arr as $k => $v) { $s += f3($x) + $pad; }  // throws with the iterator live
  return $s;
}
function f1($x) { $g = new Guard("f1"); return f2($x) + 1; }
function entry() {
  $r = 0;
  for ($i = 0; $i < 6; $i++) {
    try { $r += f1($i); } catch (Exception $e) { echo "[", $e->getMessage(), "] "; }
  }
  echo $r;
  return $r;
}`

	// rare() is small enough to inline and its cold branch is absent
	// from the profiled region, so the last call side-exits inside
	// inlined code and the machine materializes the callee frame
	// (vm.resumeInlineChain).
	srcInlineSideExit = `
function rare($x) {
  if ($x == 999999) { return strtoupper("cold-" . $x); }
  return $x * 2;
}
function mid($x) { return rare($x) + 1; }
function entry() {
  $acc = 0;
  for ($i = 0; $i < 20; $i++) { $acc += mid($i); }
  echo $acc, ":", rare(999999), ":";
  try { echo mid(999999); } catch (Exception $e) { echo "E"; }
  return $acc;
}`
)

// callEntry runs entry() once on v and renders everything observable.
func callEntry(v *vm.VM, entry *hhbc.Func, out *strings.Builder) string {
	out.Reset()
	v.SetOut(out)
	val, err := v.CallFunc(entry, nil, nil)
	res := fmt.Sprintf("%s|ret=%s|err=%v", out.String(), val.ToString(), err)
	v.Heap.DecRef(val)
	return res
}

// checkRecycled asserts the pool invariants on one VM after traffic.
func checkRecycled(t *testing.T, label string, v *vm.VM) {
	t.Helper()
	if msg := heapImbalance(v.Heap, false); msg != "" {
		t.Errorf("%s: %s", label, msg)
	}
	pool := v.Env.PooledFrames()
	if len(pool) == 0 {
		t.Errorf("%s: free list is empty after traffic: frames are not being recycled", label)
	}
	for i, fr := range pool {
		if fr.Fn != nil || fr.This != nil || len(fr.Locals)+len(fr.Stack)+len(fr.Iters) != 0 {
			t.Errorf("%s: pooled frame %d not reset: fn=%v this=%v locals=%d stack=%d iters=%d",
				label, i, fr.Fn, fr.This, len(fr.Locals), len(fr.Stack), len(fr.Iters))
		}
		for j, val := range fr.Locals[:cap(fr.Locals)] {
			if val != (runtime.Value{}) {
				t.Errorf("%s: pooled frame %d still holds %s in local slot %d", label, i, val.DebugString(), j)
			}
		}
		for j, val := range fr.Stack[:cap(fr.Stack)] {
			if val != (runtime.Value{}) {
				t.Errorf("%s: pooled frame %d still holds %s in stack slot %d", label, i, val.DebugString(), j)
			}
		}
		for j, it := range fr.Iters[:cap(fr.Iters)] {
			if it != (runtime.Iter{}) {
				t.Errorf("%s: pooled frame %d still holds an iterator in slot %d", label, i, j)
			}
		}
	}
}

// serveRecycled runs rounds calls of entry() on each of `workers` VMs
// over eng (concurrently when there are several), comparing every call
// with want, then checks each VM's pool.
func serveRecycled(t *testing.T, label string, eng *core.Engine, entry *hhbc.Func, want string, workers, rounds int) {
	t.Helper()
	vms := []*vm.VM{eng.VM}
	for len(vms) < workers {
		vms = append(vms, eng.NewWorker(io.Discard))
	}
	var wg sync.WaitGroup
	for i, v := range vms {
		wg.Add(1)
		go func(i int, v *vm.VM) {
			defer wg.Done()
			var out strings.Builder
			for r := 0; r < rounds; r++ {
				if got := callEntry(v, entry, &out); got != want {
					t.Errorf("%s worker %d round %d diverges from the interpreter:\n got %.300q\nwant %.300q",
						label, i, r, got, want)
					return
				}
			}
		}(i, v)
	}
	wg.Wait()
	for i, v := range vms {
		checkRecycled(t, fmt.Sprintf("%s worker %d", label, i), v)
	}
}

// recycleConfig is the JIT configuration of the engines under test.
// Several workers need the background compiler: a foreground
// OptimizeAll charges the primary VM's meter from whichever worker
// trips the trigger.
func recycleConfig(mode jit.Mode, workers int) jit.Config {
	cfg := jit.DefaultConfig()
	cfg.Mode = mode
	cfg.ProfileTrigger = 60
	cfg.BackgroundCompile = workers > 1
	return cfg
}

// awaitOptimized waits out a background OptimizeAll.
func awaitOptimized(j *jit.JIT) bool {
	for deadline := time.Now().Add(10 * time.Second); !j.Optimized() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	return j.Optimized()
}

// recycleSetup compiles src and returns the unit, entry() and the
// interpreter's rendering of one call.
func recycleSetup(t *testing.T, src string) (*hhbc.Unit, *hhbc.Func, string) {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := unit.FuncByName("entry")
	if !ok {
		t.Fatal("program lacks entry()")
	}
	ref, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	want := callEntry(ref.VM, entry, &out)
	if again := callEntry(ref.VM, entry, &out); again != want {
		t.Fatalf("program is not repeatable under the interpreter:\n%q\n%q", want, again)
	}
	checkRecycled(t, "interp", ref.VM)
	return unit, entry, want
}

func TestFrameRecyclingDifferential(t *testing.T) {
	programs := []struct{ name, src, wantSub string }{
		{"deep-recursion", srcDeepRecursion, "400 maximum call depth exceeded|ret=30"},
		{"throw-through-destructors", srcThrowThroughDestructors, "[boom1] "},
		{"inline-side-exit", srcInlineSideExit, ":COLD-999999:"},
	}
	for _, p := range programs {
		unit, entry, want := recycleSetup(t, p.src)
		if !strings.Contains(want, p.wantSub) {
			t.Fatalf("%s: interpreter printed %q, expected it to contain %q", p.name, want, p.wantSub)
		}
		for _, mode := range []jit.Mode{jit.ModeTracelet, jit.ModeRegion} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/%dw", p.name, mode, workers)
				eng, err := core.NewEngine(unit, recycleConfig(mode, workers), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				serveRecycled(t, label, eng, entry, want, workers, 12)
				if mode == jit.ModeRegion && !awaitOptimized(eng.VM.JIT) {
					t.Errorf("%s: never reached the optimized tier; the test exercised less than it claims", label)
				}
			}
		}
	}
}

// TestFrameRecyclingAcrossFaults: a translation that panics at entry
// is contained (machine.Faulted) and its frame re-executed in the
// interpreter — the same pooled frame, rewound, not a fresh one.
func TestFrameRecyclingAcrossFaults(t *testing.T) {
	for _, src := range []string{srcThrowThroughDestructors, srcInlineSideExit} {
		unit, entry, want := recycleSetup(t, src)
		for _, workers := range []int{1, 4} {
			cfg := recycleConfig(jit.ModeRegion, workers)
			var rates faultinject.Config
			rates.Seed = 5
			rates.Rates[faultinject.TransPanic] = 0.05
			cfg.Faults = faultinject.New(rates)
			eng, err := core.NewEngine(unit, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			serveRecycled(t, fmt.Sprintf("faults/%dw", workers), eng, entry, want, workers, 25)
			if cfg.Faults.Fired(faultinject.TransPanic) == 0 || eng.Stats().TransFaults == 0 {
				t.Errorf("no translation fault was injected and contained (fired %d, contained %d)",
					cfg.Faults.Fired(faultinject.TransPanic), eng.Stats().TransFaults)
			}
		}
	}
}

// TestWarmedLeafCallAllocatesNothing: with the frame, the activation
// and the builtin context recycled, a warmed guest call costs the Go
// allocator nothing in either tier.
func TestWarmedLeafCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	unit, err := core.Compile(`
function leaf($a, $b) { $c = $a * 2; return max($c, $b) + strlen("abc"); }
`, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := unit.FuncByName("leaf")
	for _, mode := range []jit.Mode{jit.ModeInterp, jit.ModeTracelet, jit.ModeRegion} {
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		cfg.ProfileTrigger = 60
		eng, err := core.NewEngine(unit, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]runtime.Value, 2)
		call := func() {
			args[0], args[1] = runtime.Int(20), runtime.Int(7)
			v, err := eng.VM.CallFunc(leaf, nil, args)
			if err != nil || v.AsInt() != 43 {
				t.Fatalf("[%s] leaf(20, 7) = %s, %v; want 43", mode, v.DebugString(), err)
			}
		}
		for i := 0; i < 200; i++ {
			call()
		}
		if mode == jit.ModeRegion && !eng.VM.JIT.Optimized() {
			t.Fatalf("[%s] never reached the optimized tier", mode)
		}
		if mode != jit.ModeInterp && eng.Stats().MachineEnters == 0 {
			t.Fatalf("[%s] the machine never ran", mode)
		}
		if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
			t.Errorf("[%s] a warmed leaf call performs %v Go allocations, want 0", mode, allocs)
		}
	}
}

// TestSiteRequestAllocationBudget: one warmed pass over the
// workload.Combined() mix. What is left is guest-visible allocation —
// strings, arrays, objects the programs themselves create — so the
// budget only moves when the host representation regresses: this
// round-robin pass costs 49.1 per request — 96 before arrays came back
// from the heap's free lists with their storage, 111 before mixed arrays
// became one entry slice sized by their literal (no Go map), 166 before
// strings were built in place (ConcatN, ConcatL), ~340 before strings
// and objects came back from the free lists, ~520 before frames,
// activations and builtin contexts were recycled.
func TestSiteRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var funcs []*hhbc.Func
	for _, ep := range eps {
		f, ok := eng.Unit.FuncByName(workload.EndpointFunc(ep.Name))
		if !ok {
			t.Fatalf("combined unit lacks %s", ep.Name)
		}
		funcs = append(funcs, f)
	}
	pass := func() {
		for _, f := range funcs {
			v, err := eng.VM.CallFunc(f, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng.Heap().DecRef(v)
		}
	}
	for i := 0; i < 40; i++ {
		pass()
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("warm-up did not reach the optimized tier")
	}
	const budget = 55
	perReq := testing.AllocsPerRun(5, pass) / float64(len(funcs))
	t.Logf("site allocations: %.1f per warmed request (budget %d)", perReq, budget)
	if perReq > budget {
		t.Errorf("a warmed site request performs %.1f Go allocations, budget %d", perReq, budget)
	}
}

// TestResmashedCallSiteAllocatesNoLinks: a direct call site whose
// argument alternates between two types re-smashes on every call (the
// callee's prologue translations take turns), and each re-smash stores
// the target translation's shared link instead of allocating one.
func TestResmashedCallSiteAllocatesNoLinks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	unit, err := core.Compile(`
function poly($x) { return $x + 1; }
function drive($n) {
  $vals = [1, 1.5];
  $c = 0;
  for ($i = 0; $i < $n; $i++) { poly($vals[$i % 2]); $c++; }
  return $c;
}
`, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drive, _ := unit.FuncByName("drive")
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 60
	cfg.EnableInlining = false // keep the call a call
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 1000
	args := make([]runtime.Value, 1)
	run := func() {
		args[0] = runtime.Int(calls)
		v, err := eng.VM.CallFunc(drive, nil, args)
		if err != nil || v.AsInt() != calls {
			t.Fatalf("drive(%d) = %s, %v", calls, v.DebugString(), err)
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("never reached the optimized tier")
	}
	before := eng.Stats().BindsSmashed
	allocs := testing.AllocsPerRun(5, run)
	smashes := float64(eng.Stats().BindsSmashed-before) / 6 // AllocsPerRun warms up once
	t.Logf("%d calls: %.0f re-smashes, %.0f Go allocations", calls, smashes, allocs)
	if smashes < calls/2 {
		t.Fatalf("the call site re-smashed only %.0f times in %d calls; the test no longer alternates", smashes, calls)
	}
	if allocs > 20 {
		t.Errorf("%d alternating calls perform %.0f Go allocations (%.0f re-smashes), want O(1)", calls, allocs, smashes)
	}
}
