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
// latched off or ride the degradation ladder down to interp-only.
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
	if lvl := eng.VM.JIT.DegradeLevel(); lvl != 0 {
		t.Errorf("degradation ladder stuck at level %d after successful recycling", lvl)
	}
	if st.LiveTranslations == 0 {
		t.Error("no live translations resident — minting did not resume")
	}
}

// TestRecycleUnderConcurrentMinting is the interleaving the global
// compile mutex used to hide: four workers mint translations of
// different functions at once — each under its own function's lease —
// into a cache a third the size of the workload's footprint, so
// placeCode's alloc → recycle → alloc sequences overlap with each
// other and with other workers' allocations. Outputs must match the
// interpreter, recycling must actually run, and the cache's byte
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
			if st.LeaseAcquires == 0 {
				t.Error("no lease acquisitions recorded")
			}
			t.Logf("recycle runs=%d evictions=%d cache-full events=%d lease waits=%d degrade=%d",
				st.RecycleRuns, st.Evictions, st.CacheFullEvents, st.LeaseWaits, st.DegradeLevel)
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
// from a global counter, so fanning the optimizing backend over a
// worker pool must fail exactly the translations a serial run fails.
// Identical seeds and traffic with CompileWorkers 1 vs 4 must produce
// the same failure count and the same quarantine ledger.
func TestCompileFaultsDeterministicAcrossCompileWorkers(t *testing.T) {
	run := func(workers int) (uint64, []string) {
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
		cfg.CompileWorkers = workers
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
					t.Fatalf("workers=%d endpoint %s: %v", workers, ep.Name, err)
				}
				eng.Heap().DecRef(val)
			}
		}
		var ledger []string
		eng.VM.JIT.ForEachQuarantined(func(fnID, pc, attempts int, permanent bool) {
			ledger = append(ledger, fmt.Sprintf("%d:%d:%d:%v", fnID, pc, attempts, permanent))
		})
		sort.Strings(ledger)
		return eng.Stats().CompileFailures, ledger
	}

	serialFails, serialLedger := run(1)
	parallelFails, parallelLedger := run(4)
	if serialFails == 0 {
		t.Fatal("injected compile errors never fired (rate/traffic too low for the test to mean anything)")
	}
	if serialFails != parallelFails {
		t.Errorf("CompileFailures: serial %d, 4 workers %d", serialFails, parallelFails)
	}
	if !reflect.DeepEqual(serialLedger, parallelLedger) {
		t.Errorf("quarantine ledgers differ:\n serial   %v\n parallel %v", serialLedger, parallelLedger)
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

// TestShedLiveMintingDoesNotBounceLoops: a host shed to
// DegradeNoLiveMint interprets code that has no translation. Its loop
// back-edges are OSR points, and the OSR check must know what the
// dispatcher knows: a bounce the dispatcher then refuses costs one
// Lookup and one interpreter re-entry per iteration. Dispatcher work
// per request must not grow with the trip count. At the ladder's
// bottom, DegradeInterpOnly, code that already runs translated must
// stop entering machine code at once and still return the same answer.
func TestShedLiveMintingDoesNotBounceLoops(t *testing.T) {
	unit, err := core.Compile(`
function spin($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s += $i; } return $s; }
`, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int32{jit.DegradeNoLiveMint, jit.DegradeNoMint} {
		cfg := jit.DefaultConfig()
		cfg.Mode = jit.ModeTracelet
		eng, err := core.NewEngine(unit, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		eng.VM.JIT.Shed(level)
		for _, n := range []int64{200, 2000} {
			before := eng.Stats()
			v, err := eng.Call("spin", runtime.Int(n))
			if err != nil || v.AsInt() != n*(n-1)/2 {
				t.Fatalf("spin(%d) = %s, %v", n, v.DebugString(), err)
			}
			st := eng.Stats()
			lookups, runs := st.Lookups-before.Lookups, st.InterpRuns-before.InterpRuns
			if lookups > 2 || runs > 2 {
				t.Errorf("degrade level %d, %d iterations: %d dispatcher lookups and %d interpreter entries for one request, want at most 2 of each",
					level, n, lookups, runs)
			}
		}
		if st := eng.Stats(); st.LiveTranslations != 0 {
			t.Errorf("degrade level %d: %d live translations minted while shed", level, st.LiveTranslations)
		}
	}

	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeTracelet
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	call := func() (enters, lookups, runs uint64) {
		t.Helper()
		before := eng.Stats()
		v, err := eng.Call("spin", runtime.Int(n))
		if err != nil || v.AsInt() != n*(n-1)/2 {
			t.Fatalf("spin(%d) = %s, %v", n, v.DebugString(), err)
		}
		st := eng.Stats()
		return st.MachineEnters - before.MachineEnters, st.Lookups - before.Lookups, st.InterpRuns - before.InterpRuns
	}
	// Warm until a whole call runs translated, entry included: only then
	// does the shed take machine code away from the dispatcher's own
	// entry Lookup, not just from the OSR check.
	warm := false
	for req := 0; req < 10 && !warm; req++ {
		enters, _, runs := call()
		warm = enters > 0 && runs == 0
	}
	if !warm {
		t.Fatal("spin never ran translated from its entry before the shed")
	}
	eng.VM.JIT.Shed(jit.DegradeInterpOnly)
	if enters, lookups, runs := call(); enters != 0 || lookups > 2 || runs > 2 {
		t.Errorf("DegradeInterpOnly: %d machine entries, %d dispatcher lookups and %d interpreter entries for one request, want 0, at most 2 and at most 2",
			enters, lookups, runs)
	}
}
