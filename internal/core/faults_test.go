// Engine-level tests for the self-healing layer (DESIGN.md §11):
// concurrent fault containment under injection, code-cache recycling
// reopening the mint path after exhaustion, and jumpstart snapshot
// corruption degrading to a clean cold start. Run with -race these
// also exercise the unpublish path against lock-free index readers.
package core_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/runtime"
	"repro/internal/vm"
	"repro/internal/workload"
)

// interpRefs runs every endpoint through a pure interpreter and
// returns the reference outputs.
func interpRefs(t *testing.T, unit *core.Engine, eps []workload.Endpoint) map[string]string {
	t.Helper()
	ref := map[string]string{}
	for _, ep := range eps {
		var sb strings.Builder
		unit.VM.SetOut(&sb)
		val, err := unit.Call(workload.EndpointFunc(ep.Name))
		if err != nil {
			t.Fatalf("reference %s: %v", ep.Name, err)
		}
		unit.Heap().DecRef(val)
		ref[ep.Name] = sb.String()
	}
	return ref
}

// serveConcurrently runs rounds passes over every endpoint on each of
// `workers` VMs sharing eng's JIT, comparing each output with ref.
// Workers start at staggered endpoints so they are minting different
// functions at the same moment. Returns the first failure.
func serveConcurrently(eng *core.Engine, unit *hhbc.Unit, eps []workload.Endpoint,
	ref map[string]string, workers, rounds int) error {

	ws := make([]*vm.VM, workers)
	ws[0] = eng.VM
	for i := 1; i < workers; i++ {
		ws[i] = eng.NewWorker(io.Discard)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for i, v := range ws {
		wg.Add(1)
		go func(v *vm.VM, first int) {
			defer wg.Done()
			for n := 0; n < rounds*len(eps); n++ {
				ep := eps[(first+n)%len(eps)]
				fn, ok := unit.FuncByName(workload.EndpointFunc(ep.Name))
				if !ok {
					errCh <- fmt.Errorf("endpoint %s: missing function", ep.Name)
					return
				}
				var sb strings.Builder
				v.SetOut(&sb)
				val, err := v.CallFunc(fn, nil, nil)
				if err != nil {
					errCh <- fmt.Errorf("endpoint %s: %v", ep.Name, err)
					return
				}
				v.Heap.DecRef(val)
				if sb.String() != ref[ep.Name] {
					errCh <- fmt.Errorf("endpoint %s: output diverged:\n got %q\nwant %q",
						ep.Name, sb.String(), ref[ep.Name])
					return
				}
			}
		}(v, i*len(eps)/workers)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// TestFaultContainmentConcurrent hammers a shared JIT with four
// workers while every fault kind fires at 2% per draw: translations
// panic mid-request, compiles fail, allocations fail, chain links go
// stale. Every request must still complete with output identical to
// the interpreter's — the process must not panic, and faulting
// regions must be re-executed in the interpreter transparently.
func TestFaultContainmentConcurrent(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := interpRefs(t, refEng, eps)

	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 300
	cfg.BackgroundCompile = true
	cfg.Faults = faultinject.New(faultinject.EnableAll(11, 0.02))
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if err := serveConcurrently(eng, unit, eps, ref, 4, 25); err != nil {
		t.Fatalf("under fault injection: %v", err)
	}

	st := eng.Stats()
	if st.TransFaults == 0 {
		t.Error("no translation faults were contained (injector never fired?)")
	}
	if fired := cfg.Faults.TotalFired(); fired == 0 {
		t.Error("injector reports zero firings over the whole run")
	}
}

// TestRecycleReopensMinting forces genuine code-cache exhaustion by
// shrinking the cache to a third of the workload's tracelet
// footprint. Recycling must evict cold translations, clear the sticky
// cache-full latch, and let minting resume — the JIT must not stay
// latched off.
func TestRecycleReopensMinting(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := interpRefs(t, refEng, eps)

	runAll := func(eng *core.Engine, rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			for _, ep := range eps {
				var sb strings.Builder
				eng.VM.SetOut(&sb)
				val, err := eng.Call(workload.EndpointFunc(ep.Name))
				if err != nil {
					t.Fatalf("endpoint %s: %v", ep.Name, err)
				}
				eng.Heap().DecRef(val)
				if sb.String() != ref[ep.Name] {
					t.Fatalf("endpoint %s: output diverged under cache pressure:\n got %q\nwant %q",
						ep.Name, sb.String(), ref[ep.Name])
				}
			}
		}
	}

	// Probe: measure the workload's full tracelet footprint.
	probeCfg := jit.DefaultConfig()
	probeCfg.Mode = jit.ModeTracelet
	probe, err := core.NewEngine(unit, probeCfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	runAll(probe, 6)
	footprint := probe.Stats().BytesLive
	if footprint == 0 {
		t.Fatal("probe minted no tracelet code")
	}

	// Constrained run: a third of the footprint guarantees exhaustion.
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeTracelet
	cfg.CodeCacheLimit = footprint / 3
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	runAll(eng, 6)

	st := eng.Stats()
	if st.CacheFullEvents == 0 {
		t.Fatal("cache never filled — the episode did not happen")
	}
	if st.RecycleRuns == 0 {
		t.Error("cache filled but recycling never ran")
	}
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Errorf("recycling evicted nothing: %d evictions, %d bytes",
			st.Evictions, st.EvictedBytes)
	}
	if eng.VM.JIT.CacheFull() {
		t.Error("cache-full latch still set after recycling")
	}
	if st.LiveTranslations == 0 {
		t.Error("no live translations resident — minting did not resume")
	}
}

// TestRecycleUnderConcurrentMinting: four workers mint translations
// of different functions, taking turns on the write lease, into a
// cache a third the size of the workload's footprint, so placeCode's
// alloc → recycle → alloc sequence runs again and again while other
// workers execute, and evict, the code it replaces. Outputs must match
// the interpreter, recycling must actually run, and the cache's byte
// accounting must stay exact (no clamped frees).
func TestRecycleUnderConcurrentMinting(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := interpRefs(t, refEng, eps)

	for _, mode := range []jit.Mode{jit.ModeTracelet, jit.ModeProfiling} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := jit.DefaultConfig()
			cfg.Mode = mode
			probe, err := core.NewEngine(unit, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := serveConcurrently(probe, unit, eps, ref, 1, 4); err != nil {
				t.Fatal(err)
			}
			footprint := probe.Stats().BytesLive + probe.Stats().BytesProfiling
			if footprint == 0 {
				t.Fatal("probe minted no code")
			}

			cfg.CodeCacheLimit = footprint / 3
			eng, err := core.NewEngine(unit, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := serveConcurrently(eng, unit, eps, ref, 4, 4); err != nil {
				t.Fatalf("under cache pressure: %v", err)
			}
			st := eng.Stats()
			if st.RecycleRuns < 2 {
				t.Errorf("recycling ran %d times, want repeated episodes", st.RecycleRuns)
			}
			if n := eng.VM.JIT.Cache.FreeUnderflows(); n != 0 {
				t.Errorf("%d frees exceeded their area's allocated bytes", n)
			}
			t.Logf("recycle runs=%d evictions=%d cache-full events=%d",
				st.RecycleRuns, st.Evictions, st.CacheFullEvents)
		})
	}
}

// TestJumpstartCorruptInjectionColdStart injects a snapshot
// corruption into the load path: the CRC-validated decode must reject
// the snapshot whole and the engine must cold-start with no partial
// profile state, then warm up the normal way.
func TestJumpstartCorruptInjectionColdStart(t *testing.T) {
	donor := warmEngine(t, donorSrc)
	snap := donor.ProfileSnapshot()
	if len(snap.Funcs) == 0 {
		t.Fatal("empty snapshot from warmed donor")
	}

	unit, err := core.Compile(donorSrc, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 100
	cfg.Faults = faultinject.New(faultinject.Config{Seed: 3})
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults.ForceNext(faultinject.SnapshotCorrupt, 1)
	res := eng.LoadProfile(snap)
	if !res.Corrupt {
		t.Fatal("corrupted snapshot was not flagged Corrupt")
	}
	if res.LoadedFuncs != 0 || res.LoadedTrans != 0 || res.Optimized {
		t.Fatalf("partial state applied from a corrupt snapshot: %+v", res)
	}
	st := eng.Stats()
	if st.ProfilingTranslations != 0 || st.OptimizedTranslations != 0 {
		t.Fatalf("translations resident after rejected load: %d profiling, %d optimized",
			st.ProfilingTranslations, st.OptimizedTranslations)
	}

	// Cold start proceeds normally: correct output, then a standard
	// profile → optimize warmup as if the snapshot never existed.
	var out strings.Builder
	if _, err := eng.RunRequest(&out); err != nil {
		t.Fatal(err)
	}
	if want := "v=1560\n"; out.String() != want {
		t.Errorf("cold-start output %q, want %q", out.String(), want)
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.RunRequest(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().OptimizeRuns == 0 {
		t.Error("engine never warmed up after the rejected snapshot")
	}
}

// TestJumpstartVersionMismatchColdStart writes a snapshot file,
// advances its version byte (a future-format file), and verifies the
// load path rejects it cleanly so callers fall back to a cold start.
func TestJumpstartVersionMismatchColdStart(t *testing.T) {
	donor := warmEngine(t, donorSrc)
	path := filepath.Join(t.TempDir(), "prof.hhjs")
	if err := jumpstart.Save(path, donor.ProfileSnapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4]++ // the version byte follows the 4-byte magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := jumpstart.Load(path); !errors.Is(err, jumpstart.ErrVersion) {
		t.Fatalf("future-version snapshot load error = %v, want ErrVersion", err)
	}
}

// TestCompileFaultsDeterministicAcrossCompileWorkers: injected
// compile errors draw per site (keyed by function and entry PC), not
// from a global counter, so the order in which the compiler works
// through the sites does not change which compiles fail. The global
// retranslation compiles its regions in C3 order with FunctionSort on
// and in function-ID order with it off; identical seeds and traffic
// must publish the same optimized regions either way, fail the same
// mints, and leave the same quarantine ledger.
func TestCompileFaultsDeterministicAcrossCompileWorkers(t *testing.T) {
	type outcome struct {
		fails, partial  uint64
		regions, ledger []string
	}
	run := func(sorted bool) outcome {
		src, eps := workload.Combined()
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var fi faultinject.Config
		fi.Seed = 23
		fi.Rates[faultinject.CompileError] = 0.25
		cfg := jit.DefaultConfig()
		cfg.ProfileTrigger = 250
		cfg.FunctionSort = sorted
		cfg.Faults = faultinject.New(fi)
		eng, err := core.NewEngine(unit, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 30; r++ {
			for _, ep := range eps {
				var sb strings.Builder
				eng.VM.SetOut(&sb)
				val, err := eng.Call(workload.EndpointFunc(ep.Name))
				if err != nil {
					t.Fatalf("sorted=%v endpoint %s: %v", sorted, ep.Name, err)
				}
				eng.Heap().DecRef(val)
			}
		}
		var ledger []string
		eng.VM.JIT.ForEachQuarantined(func(fnID, pc, attempts int, permanent bool) {
			ledger = append(ledger, fmt.Sprintf("%d:%d:%d:%v", fnID, pc, attempts, permanent))
		})
		sort.Strings(ledger)
		var regions []string
		eng.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
			if tr.Kind == jit.ModeRegion {
				regions = append(regions, fmt.Sprintf("%d:%d:%v", tr.FuncID, tr.PC, tr.Preconds))
			}
		})
		sort.Strings(regions)
		st := eng.Stats()
		return outcome{st.CompileFailures, st.PartialPublishFuncs, regions, ledger}
	}

	c3, byID := run(true), run(false)
	if c3.fails == 0 || c3.partial == 0 {
		t.Fatalf("injected compile errors failed %d mints and %d optimized functions; the test needs both",
			c3.fails, c3.partial)
	}
	if !reflect.DeepEqual(c3, byID) {
		t.Errorf("outcomes differ with the compile order:\n C3 order %+v\n ID order %+v", c3, byID)
	}
}

// TestQuarantineBackoffExpiryRepromotes drives the full recovery arc
// end-to-end: a hot address whose compile is made to fail lands in
// quarantine with a backoff window; once traffic moves the entries
// clock past the window, the retry compiles cleanly, the address is
// re-promoted, and QuarantineRecoveries records the heal. Outputs
// must match the interpreter throughout — quarantine means interp
// service, never wrong answers.
func TestQuarantineBackoffExpiryRepromotes(t *testing.T) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := core.NewEngine(unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ref := interpRefs(t, refEng, eps)

	inj := faultinject.New(faultinject.Config{Seed: 9})
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 250
	cfg.Faults = inj
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		t.Helper()
		for _, ep := range eps {
			var sb strings.Builder
			eng.VM.SetOut(&sb)
			val, err := eng.Call(workload.EndpointFunc(ep.Name))
			if err != nil {
				t.Fatalf("endpoint %s: %v", ep.Name, err)
			}
			eng.Heap().DecRef(val)
			if sb.String() != ref[ep.Name] {
				t.Fatalf("endpoint %s: output diverged from interpreter", ep.Name)
			}
		}
	}
	for r := 0; r < 30; r++ {
		round()
	}
	if eng.Stats().OptimizedTranslations == 0 {
		t.Fatal("warmup published no optimized translations")
	}
	base := eng.Stats()

	// Knock out one hot published address and make its re-mint fail.
	j := eng.VM.JIT
	var fnID, pc = -1, -1
	j.ForEachTranslation(func(tr *jit.Translation) {
		if fnID < 0 {
			fnID, pc = tr.FuncID, tr.PC
		}
	})
	inj.ForceNext(faultinject.CompileError, 2)
	if j.Invalidate(fnID, pc) == 0 {
		t.Fatalf("victim (fn %d pc %d) was not published", fnID, pc)
	}
	for r := 0; r < 40; r++ {
		round()
	}

	st := eng.Stats()
	if fired := inj.Fired(faultinject.CompileError); fired == 0 {
		t.Fatal("forced compile errors never fired (no re-mint attempted?)")
	}
	if st.CompileFailures <= base.CompileFailures {
		t.Errorf("no compile failures recorded: %d -> %d", base.CompileFailures, st.CompileFailures)
	}
	if st.QuarantineRetries <= base.QuarantineRetries {
		t.Errorf("no quarantine retries: %d -> %d", base.QuarantineRetries, st.QuarantineRetries)
	}
	if st.QuarantineRecoveries <= base.QuarantineRecoveries {
		t.Errorf("backoff expiry never re-promoted the address: recoveries %d -> %d",
			base.QuarantineRecoveries, st.QuarantineRecoveries)
	}
	// The healed ledger: nothing left quarantined, nothing demoted.
	left := 0
	j.ForEachQuarantined(func(_, _, _ int, _ bool) { left++ })
	if left != 0 {
		t.Errorf("%d addresses still in the quarantine ledger after recovery", left)
	}
	if st.Demotions != base.Demotions {
		t.Errorf("transient compile failures escalated to demotion: %d -> %d", base.Demotions, st.Demotions)
	}
}

// TestLiveTierTranslatesAChainInOneWalk: a bind request is JITed code
// asking for its continuation, so the address it names is minted on
// that first visit (DESIGN.md §9) — a straight line of tracelets is
// compiled the first time it is walked. When a bind request counted as
// one visit like any other, the interpreter took over at each new
// address and ran to the end of the function, so every request added
// one tracelet: this function needed two dozen requests to leave the
// interpreter (and Figure 8 measured the live tier mid-warm-up).
func TestLiveTierTranslatesAChainInOneWalk(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&body, "  $a += step($a, %d);\n", i)
	}
	unit, err := core.Compile("function step($a, $i) { return $a % 7 + $i; }\nfunction line() {\n  $a = 1;\n"+
		body.String()+"  return $a;\n}\n", core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeTracelet
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for req := 0; req < 5; req++ {
		before := eng.Stats()
		v, err := eng.Call("line")
		if err != nil {
			t.Fatal(err)
		}
		if req == 0 {
			want = v.AsInt()
		} else if v.AsInt() != want {
			t.Fatalf("request %d returned %d, the first %d", req, v.AsInt(), want)
		}
		st := eng.Stats()
		// Two visits to line's entry make its first tracelet; the
		// walk that follows binds the rest.
		if req >= 2 && (st.InterpRuns != before.InterpRuns || st.LiveTranslations != before.LiveTranslations) {
			t.Errorf("request %d: %d interpreter stretches, %d new live translations, want a warmed chain",
				req, st.InterpRuns-before.InterpRuns, st.LiveTranslations-before.LiveTranslations)
		}
	}
}

// TestShedLiveMintingDoesNotBounceLoops: a host whose code cache is
// exhausted, with nothing a recycle could evict, keeps the cache-full
// latch set, and the latch closes all minting: code with no translation
// is interpreted. Its loop back-edges are OSR points, and the OSR check
// must know what the dispatcher knows: a bounce the dispatcher then
// refuses costs one Lookup and one interpreter re-entry per iteration.
// Dispatcher work per request must not grow with the trip count.
func TestShedLiveMintingDoesNotBounceLoops(t *testing.T) {
	unit, err := core.Compile(`
function spin($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }
`, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeTracelet
	cfg.CodeCacheLimit = 1
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{200, 2000} {
		before := eng.Stats()
		v, err := eng.Call("spin", runtime.Int(n))
		if err != nil || v.AsInt() != n*(n-1)/2 {
			t.Fatalf("spin(%d) = %s, %v", n, v.DebugString(), err)
		}
		st := eng.Stats()
		lookups, runs := st.Lookups-before.Lookups, st.InterpRuns-before.InterpRuns
		t.Logf("spin(%d): %d dispatcher lookups, %d interpreter entries", n, lookups, runs)
		if lookups > 2 || runs > 2 {
			t.Errorf("%d iterations: %d dispatcher lookups and %d interpreter entries for one request, want at most 2 of each",
				n, lookups, runs)
		}
	}
	if st := eng.Stats(); st.LiveTranslations != 0 {
		t.Errorf("%d live translations minted into an exhausted cache", st.LiveTranslations)
	}
	if !eng.VM.JIT.CacheFull() {
		t.Error("cache-full latch cleared, though a recycle could free nothing")
	}
}
