package core_test

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/workload"
)

const donorSrc = `
function hot($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i * 2; } return $s; }
function fmt($x) { return "v=" . $x; }
echo fmt(hot(40)), "\n";
`

// changedSrc edits hot()'s body (the multiplier), leaving fmt intact.
const changedSrc = `
function hot($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i * 3; } return $s; }
function fmt($x) { return "v=" . $x; }
echo fmt(hot(40)), "\n";
`

func warmEngine(t *testing.T, src string) *core.Engine {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 100
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.RunRequest(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func freshEngine(t *testing.T, src string) *core.Engine {
	t.Helper()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 100
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestJumpstartStaleFunctionFallback takes a snapshot on source S1 and
// loads it into an engine built from S2, where one function's bytecode
// changed. The changed function must be rejected as stale (it falls
// back to live profiling); the untouched functions load; and the S2
// engine's output reflects S2's semantics — the stale profile must not
// leak S1 behavior.
func TestJumpstartStaleFunctionFallback(t *testing.T) {
	donor := warmEngine(t, donorSrc)
	if donor.Stats().OptimizeRuns == 0 {
		t.Fatal("donor never fired the global retranslation trigger")
	}
	snap := donor.ProfileSnapshot()
	if len(snap.Funcs) == 0 {
		t.Fatal("empty snapshot from warmed donor")
	}

	eng := freshEngine(t, changedSrc)
	res := eng.LoadProfile(snap)

	stale := strings.Join(res.StaleFuncs, ",")
	if !strings.Contains(stale, "hot") {
		t.Errorf("edited function hot must be stale, got stale=%q", stale)
	}
	if strings.Contains(stale, "fmt") {
		t.Errorf("untouched function fmt must not be stale, got stale=%q", stale)
	}
	if res.LoadedFuncs == 0 || res.LoadedTrans == 0 {
		t.Errorf("untouched functions should still load: %+v", res)
	}
	if !res.Optimized {
		t.Error("partial staleness must not block the optimize pass")
	}

	// Correctness: the jumpstarted engine must produce S2's output.
	var out strings.Builder
	if _, err := eng.RunRequest(&out); err != nil {
		t.Fatal(err)
	}
	want := "v=2340\n" // sum 0..39 of 3i
	if out.String() != want {
		t.Errorf("jumpstarted output %q, want %q", out.String(), want)
	}

	// The stale function still warms up the normal way afterwards.
	for i := 0; i < 40; i++ {
		if _, err := eng.RunRequest(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	var out2 strings.Builder
	if _, err := eng.RunRequest(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != want {
		t.Errorf("post-warmup output %q, want %q", out2.String(), want)
	}
}

// TestJumpstartSameSourceLoadsEverything is the happy path: identical
// source accepts every function and publishes optimized code without
// live profiling.
func TestJumpstartSameSourceLoadsEverything(t *testing.T) {
	donor := warmEngine(t, donorSrc)
	snap := donor.ProfileSnapshot()

	eng := freshEngine(t, donorSrc)
	res := eng.LoadProfile(snap)
	if len(res.StaleFuncs) != 0 || len(res.UnknownFuncs) != 0 {
		t.Errorf("identical source: stale=%v unknown=%v", res.StaleFuncs, res.UnknownFuncs)
	}
	if !res.Optimized {
		t.Error("jumpstart did not publish optimized code")
	}
	if eng.Stats().OptimizedTranslations == 0 {
		t.Error("no optimized translations after jumpstart")
	}
	var out strings.Builder
	if _, err := eng.RunRequest(&out); err != nil {
		t.Fatal(err)
	}
	if want := "v=1560\n"; out.String() != want { // sum 0..39 of 2i
		t.Errorf("jumpstarted output %q, want %q", out.String(), want)
	}
}

// TestJumpstartPublishesTheDonorsEntries: a warm start re-selects the
// donor's profiling blocks from its snapshot, under the same selection
// policy the donor's live frames were selected under, so it publishes
// the same optimized entries — the same multiset of (function, pc,
// entry depth, preconditions). (Its optimized bytes still differ a
// little: snapshots carry no property-shape histograms, DESIGN.md §8.)
func TestJumpstartPublishesTheDonorsEntries(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	donor, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200 && donor.Stats().OptimizeRuns == 0; r++ {
		for _, ep := range eps {
			v, err := donor.Call(workload.EndpointFunc(ep.Name))
			if err != nil {
				t.Fatalf("%s: %v", ep.Name, err)
			}
			donor.Heap().DecRef(v)
		}
	}
	if n := donor.Stats().OptimizeRuns; n != 1 {
		t.Fatalf("donor ran %d retranslations, want 1", n)
	}
	warm, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res := warm.LoadProfile(donor.ProfileSnapshot()); !res.Optimized {
		t.Fatalf("jumpstart did not publish optimized code: %+v", res)
	}

	entries := func(e *core.Engine) map[string]int {
		m := map[string]int{}
		e.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
			if tr.Kind == jit.ModeRegion {
				m[fmt.Sprintf("fn %d pc %d depth %d %v", tr.FuncID, tr.PC, tr.EntryDepth, tr.Preconds)]++
			}
		})
		return m
	}
	want, got := entries(donor), entries(warm)
	if len(want) == 0 {
		t.Fatal("donor published no optimized regions")
	}
	differ := 0
	for k, n := range want {
		if got[k] != n {
			differ++
			t.Logf("donor %d, warm start %d: %s", n, got[k], k)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			differ++
			t.Logf("donor 0, warm start %d: %s", n, k)
		}
	}
	if differ != 0 {
		t.Errorf("%d of %d optimized entries differ between the donor and its warm start", differ, len(want))
	}
	t.Logf("%d optimized entries; %d optimized bytes in the donor, %d in the warm start",
		len(want), donor.Stats().BytesOptimized, warm.Stats().BytesOptimized)
}

// TestOptimizedCodeRecordsNoCallArcs: only profiling translations
// record call-graph arcs, like every other profile counter, so once the
// optimized code is published the call graph stays the one C3 laid it
// out from, and a jumpstart snapshot carries exactly that graph.
func TestOptimizedCodeRecordsNoCallArcs(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		for _, ep := range eps {
			v, err := eng.Call(workload.EndpointFunc(ep.Name))
			if err != nil {
				t.Fatalf("%s: %v", ep.Name, err)
			}
			eng.Heap().DecRef(v)
		}
	}
	for r := 0; r < 200 && eng.Stats().OptimizeRuns == 0; r++ {
		round()
	}
	if eng.Stats().OptimizeRuns != 1 {
		t.Fatal("the site never reached the optimized tier")
	}
	published := eng.VM.JIT.Counters.CallGraph()
	if len(published) == 0 {
		t.Fatal("profiling recorded no call arcs")
	}
	before := eng.Stats().ChainedCalls
	for r := 0; r < 5; r++ {
		round()
	}
	if eng.Stats().ChainedCalls == before {
		t.Fatal("optimized code made no guest calls: the test shows nothing")
	}
	if got := eng.VM.JIT.Counters.CallGraph(); !reflect.DeepEqual(got, published) {
		t.Errorf("the call graph moved after the publish: %d arcs then, %d now", len(published), len(got))
	}
}
