// Package experiments regenerates every measurement in the paper's
// evaluation section (Figures 8-11 plus the in-text §6.1 numbers) on
// the synthetic endpoint suite. Each experiment returns the same rows
// or series the paper reports; EXPERIMENTS.md records paper-vs-
// measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/internal/workload"
)

// NoShapes disables typed object shapes in every experiment config —
// the process-wide side of the -no-shapes toggle, so the whole
// evaluation suite can be replayed on the pre-shapes compiler.
var NoShapes bool

// defaultCfg is jit.DefaultConfig with the global ablation toggles
// applied; every experiment builds its configs through it.
func defaultCfg() jit.Config {
	cfg := jit.DefaultConfig()
	if NoShapes {
		cfg.EnableShapes = false
	}
	return cfg
}

// Quick reduces warmup/measure volume for fast runs (tests, benches).
var Quick = perflab.Config{WarmupRequests: 30, MeasureRequests: 6}

// Full matches the defaults.
var Full = perflab.Config{WarmupRequests: 60, MeasureRequests: 15}

// ---------- Figure 8: execution modes ----------

// Fig8Row is one bar of Figure 8.
type Fig8Row struct {
	Mode string
	// CyclesPerReq is the weighted mean cost in simulated guest
	// cycles (host time is the ledger's req_host_ns: go run
	// ./benchmarks).
	CyclesPerReq float64
	// RelPerf is performance relative to JIT-Region (100 = region).
	RelPerf float64
}

// Fig8 measures all four execution modes.
func Fig8(pc perflab.Config) ([]Fig8Row, error) {
	modes := []jit.Mode{jit.ModeInterp, jit.ModeTracelet, jit.ModeProfiling, jit.ModeRegion}
	rows := make([]Fig8Row, 0, len(modes))
	var regionMean float64
	for _, m := range modes {
		cfg := defaultCfg()
		cfg.Mode = m
		r, err := perflab.Measure(cfg, pc)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", m, err)
		}
		rows = append(rows, Fig8Row{Mode: m.String(), CyclesPerReq: r.WeightedMean})
		if m == jit.ModeRegion {
			regionMean = r.WeightedMean
		}
	}
	for i := range rows {
		if rows[i].CyclesPerReq > 0 {
			rows[i].RelPerf = 100 * regionMean / rows[i].CyclesPerReq
		}
	}
	return rows, nil
}

// ReportFig8 renders the table.
func ReportFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8 — relative performance of execution modes (region = 100%%)\n")
	fmt.Fprintf(w, "%-12s %14s %10s %18s\n", "mode", "cycles/req", "relative", "paper reports")
	paper := map[string]string{
		"interp": "12.8%", "tracelet": "82.2%", "profiling": "39.8%", "region": "100%",
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.0f %9.1f%% %18s\n", r.Mode, r.CyclesPerReq, r.RelPerf, paper[r.Mode])
	}
}

// ---------- Figure 9: startup ----------

// Fig9 runs the server restart timeline.
func Fig9() (*server.Result, error) {
	return server.Simulate(server.DefaultConfig())
}

// ---------- Jumpstart: warm-start restart vs cold restart ----------

// JumpstartComparison holds the cold and warm restart timelines under
// identical seed and configuration.
type JumpstartComparison struct {
	Cold, Warm *server.Result
}

// Jumpstart replays the Figure 9 restart twice with the same seed and
// config: once cold (live profiling, global trigger) and once
// jumpstarted from a profile snapshot taken on a warmed donor server.
// The headline metric is time-to-90%-of-steady-RPS.
func Jumpstart(cfg server.Config) (*JumpstartComparison, error) {
	if cfg.Minutes == 0 {
		cfg = server.DefaultConfig()
	}
	cold, err := server.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("jumpstart cold run: %w", err)
	}
	snap, err := server.WarmSnapshot(cfg)
	if err != nil {
		return nil, fmt.Errorf("jumpstart donor: %w", err)
	}
	warmCfg := cfg
	warmCfg.Jumpstart = snap
	warm, err := server.Simulate(warmCfg)
	if err != nil {
		return nil, fmt.Errorf("jumpstart warm run: %w", err)
	}
	return &JumpstartComparison{Cold: cold, Warm: warm}, nil
}

// ReportJumpstart renders both timelines and the headline numbers.
func ReportJumpstart(w io.Writer, c *JumpstartComparison) {
	fmt.Fprintf(w, "Jumpstart — restart timeline, cold vs warm-started from a profile snapshot\n")
	fmt.Fprintf(w, "\n--- cold restart (live profiling) ---\n")
	server.Report(w, c.Cold)
	fmt.Fprintf(w, "\n--- jumpstarted restart (snapshot warm start) ---\n")
	server.Report(w, c.Warm)
	fmt.Fprintf(w, "\ntime to 90%% steady RPS: cold=%s, jumpstart=%s\n",
		fmtMinutes(c.Cold.MinutesTo90), fmtMinutes(c.Warm.MinutesTo90))
}

func fmtMinutes(m float64) string {
	if m < 0 {
		return "never"
	}
	return fmt.Sprintf("minute %.0f", m)
}

// ---------- Direct chaining: smashed transfers vs dispatcher ----------

// ChainRow compares chained and unchained dispatch for one execution
// mode.
type ChainRow struct {
	Mode    string
	Chained bool
	// CyclesPerReq is the weighted mean request cost.
	CyclesPerReq float64
	// LookupsPerReq is the steady-state (measurement-phase) dispatcher
	// Lookup rate — chaining's headline metric.
	LookupsPerReq float64
	// Chaining activity over the whole run. BindsDispatched counts
	// bind requests that reached the VM dispatcher (the slow path the
	// smashed sites bypass).
	BindsSmashed    uint64
	BindsDispatched uint64
	ChainedJumps    uint64
	ChainedCalls    uint64
	StaleLinks      uint64
	LinksSwept      uint64
}

// Chain measures chained vs unchained dispatch in tracelet and region
// mode, and verifies the toggle leaves every endpoint's output
// bit-identical.
func Chain(pc perflab.Config) ([]ChainRow, error) {
	modes := []jit.Mode{jit.ModeTracelet, jit.ModeRegion}
	var rows []ChainRow
	for _, m := range modes {
		outputs := map[string][2]string{}
		for i, on := range []bool{false, true} {
			cfg := defaultCfg()
			cfg.Mode = m
			cfg.EnableChaining = on
			r, err := perflab.Measure(cfg, pc)
			if err != nil {
				return nil, fmt.Errorf("chain %s chained=%v: %w", m, on, err)
			}
			s := r.JITStats
			rows = append(rows, ChainRow{
				Mode: m.String(), Chained: on,
				CyclesPerReq:    r.WeightedMean,
				LookupsPerReq:   r.SteadyLookupsPerReq(),
				BindsSmashed:    s.BindsSmashed,
				BindsDispatched: s.BindRequests,
				ChainedJumps:    s.ChainedJumps,
				ChainedCalls:    s.ChainedCalls,
				StaleLinks:      s.StaleLinks,
				LinksSwept:      s.LinksSwept,
			})
			for _, ep := range r.Endpoints {
				pair := outputs[ep.Name]
				pair[i] = ep.Output
				outputs[ep.Name] = pair
			}
		}
		for name, pair := range outputs {
			if pair[0] != pair[1] {
				return nil, fmt.Errorf("chain %s: endpoint %s output differs across chaining toggle",
					m, name)
			}
		}
	}
	return rows, nil
}

// ReportChain renders the comparison.
func ReportChain(w io.Writer, rows []ChainRow) {
	fmt.Fprintf(w, "Direct chaining — smashed bind jumps / bound calls vs dispatcher round-trips\n")
	fmt.Fprintf(w, "%-10s %8s %14s %12s %10s %12s %12s %12s %10s %8s\n",
		"mode", "chained", "cycles/req", "lookups/req", "smashed", "dispatched",
		"chained-jmp", "chained-call", "stale", "swept")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8v %14.0f %12.2f %10d %12d %12d %12d %10d %8d\n",
			r.Mode, r.Chained, r.CyclesPerReq, r.LookupsPerReq,
			r.BindsSmashed, r.BindsDispatched, r.ChainedJumps, r.ChainedCalls,
			r.StaleLinks, r.LinksSwept)
	}
}

// ---------- Figure 10: optimization impact ----------

// Fig10Row is one bar of Figure 10.
type Fig10Row struct {
	Optimization string
	SlowdownPct  float64
	PaperPct     float64
}

// fig10Variants lists the ablations and the paper's reported numbers.
func fig10Variants() []struct {
	name  string
	paper float64
	mod   func(*jit.Config)
} {
	return []struct {
		name  string
		paper float64
		mod   func(*jit.Config)
	}{
		{"Inlining", 7.3, func(c *jit.Config) { c.EnableInlining = false }},
		{"RCE", 3.4, func(c *jit.Config) { c.EnableRCE = false }},
		{"Guard Relax.", 1.4, func(c *jit.Config) { c.EnableGuardRelax = false }},
		{"Method Disp.", 7.2, func(c *jit.Config) { c.EnableMethodDispatch = false }},
		{"PGO Layout", 2.8, func(c *jit.Config) { c.PGOLayout = false; c.FunctionSort = false }},
		{"All PGO", 9.0, func(c *jit.Config) {
			c.EnableMethodDispatch = false
			c.PGOLayout = false
			c.FunctionSort = false
			c.EnableGuardRelax = false
			c.HugePages = false
		}},
		{"Huge Pages", 1.6, func(c *jit.Config) { c.HugePages = false }},
	}
}

// Fig10 measures the slowdown from disabling each optimization.
func Fig10(pc perflab.Config) ([]Fig10Row, error) {
	base := defaultCfg()
	baseline, err := perflab.Measure(base, pc)
	if err != nil {
		return nil, fmt.Errorf("fig10 baseline: %w", err)
	}
	var rows []Fig10Row
	for _, v := range fig10Variants() {
		cfg := defaultCfg()
		v.mod(&cfg)
		r, err := perflab.Measure(cfg, pc)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", v.name, err)
		}
		slow := 0.0
		if baseline.WeightedMean > 0 {
			slow = (r.WeightedMean/baseline.WeightedMean - 1) * 100
		}
		rows = append(rows, Fig10Row{Optimization: v.name, SlowdownPct: slow, PaperPct: v.paper})
	}
	return rows, nil
}

// ReportFig10 renders the table.
func ReportFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10 — slowdown from disabling each optimization\n")
	fmt.Fprintf(w, "%-14s %12s %12s\n", "optimization", "slowdown", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %11.1f%% %11.1f%%\n", r.Optimization, r.SlowdownPct, r.PaperPct)
	}
}

// ---------- Figure 11: JITed code size ----------

// Fig11Row is one point of Figure 11.
type Fig11Row struct {
	// RelCodeSize is the code budget relative to baseline (1.0 =
	// unlimited steady-state footprint).
	RelCodeSize float64
	// RelPerf is performance relative to the unlimited baseline.
	RelPerf float64
}

// Fig11 sweeps the code-cache budget from 10% to 120% of the
// baseline footprint; bytecode that no longer fits is interpreted.
func Fig11(pc perflab.Config, fractions []float64) ([]Fig11Row, error) {
	if fractions == nil {
		fractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	}
	base := defaultCfg()
	baseline, err := perflab.Measure(base, pc)
	if err != nil {
		return nil, fmt.Errorf("fig11 baseline: %w", err)
	}
	baseBytes := baseline.CodeBytes
	if baseBytes == 0 {
		return nil, fmt.Errorf("fig11: baseline produced no JITed code")
	}
	var rows []Fig11Row
	for _, f := range fractions {
		cfg := defaultCfg()
		cfg.CodeCacheLimit = uint64(f * float64(baseBytes))
		if cfg.CodeCacheLimit == 0 {
			cfg.CodeCacheLimit = 1
		}
		r, err := perflab.Measure(cfg, pc)
		if err != nil {
			return nil, fmt.Errorf("fig11 %.0f%%: %w", f*100, err)
		}
		rel := 0.0
		if r.WeightedMean > 0 {
			rel = 100 * baseline.WeightedMean / r.WeightedMean
		}
		rows = append(rows, Fig11Row{RelCodeSize: f, RelPerf: rel})
	}
	return rows, nil
}

// ReportFig11 renders the series.
func ReportFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintf(w, "Figure 11 — performance vs JITed-code budget (baseline = 100%%)\n")
	fmt.Fprintf(w, "%12s %12s\n", "code budget", "rel. perf")
	for _, r := range rows {
		fmt.Fprintf(w, "%11.0f%% %11.1f%%\n", r.RelCodeSize*100, r.RelPerf)
	}
}

// ---------- Fault injection: self-healing under injected faults ----------

// FaultsResult reports the self-healing experiment (DESIGN.md §11):
// the endpoint suite run with every fault kind firing, checked for
// output fidelity against a JIT-disabled reference and for throughput
// against a fault-free baseline, plus a forced cache-recycling
// episode.
type FaultsResult struct {
	Seed int64
	// Rate is the per-draw injection probability of each fault kind.
	Rate float64

	// BaselineCycles / FaultyCycles are the weighted mean request
	// costs without and with injection; SlowdownPct relates them.
	BaselineCycles float64
	FaultyCycles   float64
	SlowdownPct    float64

	// OutputsMatch reports that every endpoint's output under
	// injection was bit-identical to the JIT-disabled reference.
	OutputsMatch bool

	// SnapshotCorruptRejected reports the snapshot-corruption leg: a
	// donor profile corrupted in flight was rejected whole and the
	// engine cold-started with no partial profile state.
	SnapshotCorruptRejected bool

	// Workers / WorkerRequests describe the concurrent run: N workers
	// sharing one fault-injected JIT, total requests completed with
	// zero process panics and reference-identical outputs.
	Workers        int
	WorkerRequests int

	// Fired counts injections actually fired per fault kind.
	Fired map[string]uint64
	// Stats is the fault-injected engine's final counter snapshot.
	Stats jit.Stats

	// Recycle is the forced cache-pressure episode.
	Recycle RecycleEpisode
}

// RecycleEpisode summarizes a run against a deliberately undersized
// code cache: exhaustion must trigger recycling, recycling must evict
// cold translations, and minting must resume (latch cleared).
type RecycleEpisode struct {
	CacheFullEvents uint64
	RecycleRuns     uint64
	Evictions       uint64
	EvictedBytes    uint64
	// LatchCleared reports the sticky cache-full latch was open at the
	// end of the run — minting had resumed.
	LatchCleared bool
	// Translations is the final resident translation count proxy
	// (live + profiling + optimized minted over the run).
	Translations uint64
	// DegradeLevel is the final degradation-ladder level (0 = the
	// ladder fully recovered).
	DegradeLevel uint64
}

// Faults runs the fault-injection experiment: a fault-free baseline,
// an all-faults-on run (every kind at rate), a 4-worker concurrent
// run under the same injection, and a forced cache-recycling episode.
func Faults(pc perflab.Config, seed int64, rate float64) (*FaultsResult, error) {
	res := &FaultsResult{Seed: seed, Rate: rate, Fired: map[string]uint64{}}

	// JIT-disabled reference outputs: the fidelity oracle.
	interpCfg := defaultCfg()
	interpCfg.Mode = jit.ModeInterp
	ref, err := perflab.Measure(interpCfg, pc)
	if err != nil {
		return nil, fmt.Errorf("faults interp reference: %w", err)
	}
	refOut := map[string]string{}
	for _, ep := range ref.Endpoints {
		refOut[ep.Name] = ep.Output
	}

	// Fault-free baseline.
	base, err := perflab.Measure(defaultCfg(), pc)
	if err != nil {
		return nil, fmt.Errorf("faults baseline: %w", err)
	}
	res.BaselineCycles = base.WeightedMean

	// All faults on. The injected engine must complete the full
	// warmup+measure protocol (Measure itself rejects nondeterministic
	// output) and match the interpreter bit-for-bit.
	cfg := defaultCfg()
	cfg.Faults = faultinject.New(faultinject.EnableAll(seed, rate))
	faulty, err := perflab.Measure(cfg, pc)
	if err != nil {
		return nil, fmt.Errorf("faults injected run: %w", err)
	}
	res.FaultyCycles = faulty.WeightedMean
	if res.BaselineCycles > 0 {
		res.SlowdownPct = (res.FaultyCycles/res.BaselineCycles - 1) * 100
	}
	res.OutputsMatch = true
	for _, ep := range faulty.Endpoints {
		if ep.Output != refOut[ep.Name] {
			res.OutputsMatch = false
		}
	}
	res.Stats = faulty.JITStats

	// Snapshot-corruption leg: persist a donor profile, then load it
	// into a fresh engine with an in-flight corruption guaranteed to
	// fire. The CRC-validated load must reject the snapshot whole and
	// cold-start cleanly (no partial profile state).
	donor, deps, err := perflab.NewEngine(defaultCfg())
	if err != nil {
		return nil, fmt.Errorf("faults snapshot donor: %w", err)
	}
	for r := 0; r < 200 && donor.Stats().OptimizeRuns == 0; r++ {
		for _, ep := range deps {
			if _, _, err := perflab.RunEndpoint(donor, ep.Name); err != nil {
				return nil, fmt.Errorf("faults snapshot donor %s: %w", ep.Name, err)
			}
		}
	}
	jcfg := defaultCfg()
	jcfg.Faults = cfg.Faults // accumulate onto the same injector's counters
	jeng, _, err := perflab.NewEngine(jcfg)
	if err != nil {
		return nil, fmt.Errorf("faults snapshot loader: %w", err)
	}
	cfg.Faults.ForceNext(faultinject.SnapshotCorrupt, 1)
	load := jeng.LoadProfile(donor.ProfileSnapshot())
	res.SnapshotCorruptRejected = load.Corrupt && load.LoadedTrans == 0 &&
		jeng.Stats().ProfilingTranslations == 0

	for _, k := range faultinject.Kinds() {
		res.Fired[k.String()] = cfg.Faults.Fired(k)
	}

	// Concurrent serving under injection: 4 workers share one
	// fault-injected JIT; every request must complete (contained, not
	// crashed) with reference-identical output.
	wcfg := defaultCfg()
	wcfg.BackgroundCompile = true
	wcfg.Faults = faultinject.New(faultinject.EnableAll(seed+1, rate))
	weng, eps, err := perflab.NewEngine(wcfg)
	if err != nil {
		return nil, fmt.Errorf("faults worker engine: %w", err)
	}
	const workers = 4
	res.Workers = workers
	rounds := pc.WarmupRequests + pc.MeasureRequests
	if rounds == 0 {
		rounds = 20
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	counts := make([]int, workers)
	for i := 0; i < workers; i++ {
		v := weng.VM
		if i > 0 {
			v = weng.NewWorker(io.Discard)
		}
		wg.Add(1)
		go func(i int, v *vm.VM) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, ep := range eps {
					_, out, err := perflab.RunEndpointVM(v, ep.Name)
					if err != nil {
						errs[i] = fmt.Errorf("worker %d %s: %w", i, ep.Name, err)
						return
					}
					if out != refOut[ep.Name] {
						errs[i] = fmt.Errorf("worker %d %s: output diverged from interp reference",
							i, ep.Name)
						return
					}
					counts[i]++
				}
			}
		}(i, v)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.WorkerRequests += counts[i]
	}

	// Forced cache-recycling episode: size the budget at a fraction of
	// the measured fault-free footprint so live minting exhausts it,
	// and check that recycling reopened the cache.
	probe := defaultCfg()
	probe.Mode = jit.ModeTracelet
	probeRes, err := perflab.Measure(probe, pc)
	if err != nil {
		return nil, fmt.Errorf("faults recycle probe: %w", err)
	}
	rcfg := defaultCfg()
	rcfg.Mode = jit.ModeTracelet
	rcfg.CodeCacheLimit = probeRes.CodeBytes / 3
	if rcfg.CodeCacheLimit == 0 {
		rcfg.CodeCacheLimit = 1
	}
	reng, reps, err := perflab.NewEngine(rcfg)
	if err != nil {
		return nil, fmt.Errorf("faults recycle engine: %w", err)
	}
	for r := 0; r < rounds; r++ {
		for _, ep := range reps {
			if _, out, err := perflab.RunEndpoint(reng, ep.Name); err != nil {
				return nil, fmt.Errorf("faults recycle run %s: %w", ep.Name, err)
			} else if out != refOut[ep.Name] {
				return nil, fmt.Errorf("faults recycle run %s: output diverged", ep.Name)
			}
		}
	}
	rst := reng.Stats()
	res.Recycle = RecycleEpisode{
		CacheFullEvents: rst.CacheFullEvents,
		RecycleRuns:     rst.RecycleRuns,
		Evictions:       rst.Evictions,
		EvictedBytes:    rst.EvictedBytes,
		LatchCleared:    !reng.VM.JIT.CacheFull(),
		Translations:    rst.LiveTranslations,
		DegradeLevel:    rst.DegradeLevel,
	}
	return res, nil
}

// ReportFaults renders the experiment.
func ReportFaults(w io.Writer, r *FaultsResult) {
	fmt.Fprintf(w, "Fault injection — self-healing under injected faults (seed %d, rate %.1f%%/draw)\n",
		r.Seed, r.Rate*100)
	fmt.Fprintf(w, "baseline %14.0f cycles/req\n", r.BaselineCycles)
	fmt.Fprintf(w, "faulty   %14.0f cycles/req  (%+.1f%%)\n", r.FaultyCycles, r.SlowdownPct)
	fmt.Fprintf(w, "outputs bit-identical to JIT-disabled reference: %v\n", r.OutputsMatch)
	fmt.Fprintf(w, "corrupt snapshot rejected whole (clean cold start): %v\n",
		r.SnapshotCorruptRejected)
	fmt.Fprintf(w, "concurrent run: %d workers, %d requests, zero panics\n",
		r.Workers, r.WorkerRequests)
	fmt.Fprintf(w, "injections fired:")
	for _, k := range faultinject.Kinds() {
		fmt.Fprintf(w, " %s=%d", k, r.Fired[k.String()])
	}
	fmt.Fprintf(w, "\ncontainment: %d faults contained, %d compile failures, %d quarantine retries, %d recoveries, %d demotions, %d unpublished\n",
		r.Stats.TransFaults, r.Stats.CompileFailures, r.Stats.QuarantineRetries,
		r.Stats.QuarantineRecoveries, r.Stats.Demotions, r.Stats.Unpublished)
	rc := r.Recycle
	fmt.Fprintf(w, "recycle episode: %d cache-full events, %d recycle runs, %d evictions (%d bytes), latch cleared=%v, degrade level=%d\n",
		rc.CacheFullEvents, rc.RecycleRuns, rc.Evictions, rc.EvictedBytes,
		rc.LatchCleared, rc.DegradeLevel)
}

// ---------- Shapes ablation (DESIGN.md §14) ----------

// ShapesRow is one endpoint of the shapes ablation: guest cost with
// typed object shapes on vs off.
type ShapesRow struct {
	Endpoint  string
	CyclesOn  float64
	CyclesOff float64
	// Speedup is off/on (>1 means shapes help).
	Speedup float64
}

// ShapesResult is the shapes ablation over the shape-polymorphism
// workload family. All per-request rates are steady-state: counter
// deltas across the measurement phase divided by measured requests.
type ShapesResult struct {
	Rows []ShapesRow
	// WeightedOn/Off are traffic-weighted mean cycles/request.
	WeightedOn, WeightedOff float64
	// Shape-machinery rates with shapes on.
	GuardsPerReq     float64
	GuardFailsPerReq float64
	ICHitsPerReq     float64
	ICMissesPerReq   float64
	ICMegaPerReq     float64
	// Generic by-name property-helper call rates on both sides of the
	// toggle — the number the gate requires to drop >=5x.
	GenericOnPerReq  float64
	GenericOffPerReq float64
	// Mono* are the steady counters of a mono-only run (traffic pinned
	// to shape_mono): the monomorphic site must resolve through shape
	// guards alone, with the IC and the generic helper both idle.
	MonoGuards  uint64
	MonoICOps   uint64
	MonoGeneric uint64
	// OutputsIdentical reports every endpoint produced bit-identical
	// output across the toggle (Shapes also fails hard if not).
	OutputsIdentical bool
}

// shapesFamily returns the shape-polymorphism endpoints from the
// suite (the shape_ name prefix).
func shapesFamily() []workload.Endpoint {
	var eps []workload.Endpoint
	for _, ep := range workload.Suite() {
		if strings.HasPrefix(ep.Name, "shape_") {
			eps = append(eps, ep)
		}
	}
	return eps
}

// steadyRate is a measurement-phase per-request rate from a counter
// delta.
func steadyRate(r *perflab.Result, get func(jit.Stats) uint64) float64 {
	if r.MeasuredRequests == 0 {
		return 0
	}
	return float64(get(r.JITStats)-get(r.WarmStats)) / float64(r.MeasuredRequests)
}

// Shapes runs the typed-object-shapes ablation: the shape workload
// family measured shapes-on and shapes-off, plus a mono-only run
// checking that a shape-monomorphic site needs nothing beyond its
// single guard.
func Shapes(pc perflab.Config) (*ShapesResult, error) {
	family := shapesFamily()
	if len(family) == 0 {
		return nil, fmt.Errorf("shapes: no shape_ endpoints in suite")
	}
	fpc := pc
	fpc.Endpoints = family

	var runs [2]*perflab.Result
	for i, on := range []bool{true, false} {
		cfg := defaultCfg()
		cfg.EnableShapes = on
		r, err := perflab.Measure(cfg, fpc)
		if err != nil {
			return nil, fmt.Errorf("shapes enabled=%v: %w", on, err)
		}
		runs[i] = r
	}
	onRun, offRun := runs[0], runs[1]

	res := &ShapesResult{
		WeightedOn:       onRun.WeightedMean,
		WeightedOff:      offRun.WeightedMean,
		GuardsPerReq:     steadyRate(onRun, func(s jit.Stats) uint64 { return s.ShapeGuards }),
		GuardFailsPerReq: steadyRate(onRun, func(s jit.Stats) uint64 { return s.ShapeGuardFails }),
		ICHitsPerReq:     steadyRate(onRun, func(s jit.Stats) uint64 { return s.PropICHits }),
		ICMissesPerReq:   steadyRate(onRun, func(s jit.Stats) uint64 { return s.PropICMisses }),
		ICMegaPerReq:     steadyRate(onRun, func(s jit.Stats) uint64 { return s.PropICMega }),
		GenericOnPerReq:  steadyRate(onRun, func(s jit.Stats) uint64 { return s.GenericPropCalls }),
		GenericOffPerReq: steadyRate(offRun, func(s jit.Stats) uint64 { return s.GenericPropCalls }),
		OutputsIdentical: true,
	}
	offBy := map[string]perflab.EndpointResult{}
	for _, ep := range offRun.Endpoints {
		offBy[ep.Name] = ep
	}
	for _, ep := range onRun.Endpoints {
		off, ok := offBy[ep.Name]
		if !ok {
			return nil, fmt.Errorf("shapes: endpoint %s missing from shapes-off run", ep.Name)
		}
		if ep.Output != off.Output {
			return nil, fmt.Errorf("shapes: endpoint %s output differs across the toggle", ep.Name)
		}
		row := ShapesRow{Endpoint: ep.Name, CyclesOn: ep.MeanCycles, CyclesOff: off.MeanCycles}
		if row.CyclesOn > 0 {
			row.Speedup = row.CyclesOff / row.CyclesOn
		}
		res.Rows = append(res.Rows, row)
	}

	// Mono-only traffic: the class-polymorphic, shape-monomorphic
	// endpoint must settle on guard-only access.
	var mono []workload.Endpoint
	for _, ep := range family {
		if ep.Name == "shape_mono" {
			mono = append(mono, ep)
		}
	}
	if len(mono) == 1 {
		mpc := pc
		mpc.Endpoints = mono
		mr, err := perflab.Measure(defaultCfgShapesOn(), mpc)
		if err != nil {
			return nil, fmt.Errorf("shapes mono run: %w", err)
		}
		res.MonoGuards = mr.JITStats.ShapeGuards - mr.WarmStats.ShapeGuards
		res.MonoICOps = (mr.JITStats.PropICHits - mr.WarmStats.PropICHits) +
			(mr.JITStats.PropICMisses - mr.WarmStats.PropICMisses) +
			(mr.JITStats.PropICMega - mr.WarmStats.PropICMega)
		res.MonoGeneric = mr.JITStats.GenericPropCalls - mr.WarmStats.GenericPropCalls
	}
	return res, nil
}

// defaultCfgShapesOn forces shapes on regardless of the NoShapes
// toggle — the mono-only structural check is about the shape
// machinery itself, not the ablation baseline.
func defaultCfgShapesOn() jit.Config {
	cfg := jit.DefaultConfig()
	cfg.EnableShapes = true
	return cfg
}

// GateErr checks the acceptance gate: generic property-helper calls
// per request must drop at least 5x with shapes on, guest cycles must
// improve, and the monomorphic endpoint must run on shape guards
// alone (no IC traffic, no generic calls).
func (r *ShapesResult) GateErr() error {
	if r.GenericOnPerReq*5 > r.GenericOffPerReq {
		return fmt.Errorf("shapes gate: generic calls/req %.1f -> %.1f is under a 5x drop",
			r.GenericOffPerReq, r.GenericOnPerReq)
	}
	if r.WeightedOn >= r.WeightedOff {
		return fmt.Errorf("shapes gate: cycles/req did not improve (%.0f on vs %.0f off)",
			r.WeightedOn, r.WeightedOff)
	}
	if r.MonoGuards == 0 {
		return fmt.Errorf("shapes gate: mono-only run executed no shape guards")
	}
	if r.MonoICOps != 0 || r.MonoGeneric != 0 {
		return fmt.Errorf("shapes gate: mono-only run was not guard-only (ic=%d generic=%d)",
			r.MonoICOps, r.MonoGeneric)
	}
	if !r.OutputsIdentical {
		return fmt.Errorf("shapes gate: outputs differ across the toggle")
	}
	return nil
}

// ReportShapes renders the ablation.
func ReportShapes(w io.Writer, r *ShapesResult) {
	fmt.Fprintf(w, "Typed object shapes — shape-guarded access vs class-keyed/generic (DESIGN.md §14)\n")
	fmt.Fprintf(w, "%-16s %14s %14s %9s\n", "endpoint", "cycles on", "cycles off", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %14.0f %14.0f %8.3fx\n", row.Endpoint, row.CyclesOn, row.CyclesOff, row.Speedup)
	}
	fmt.Fprintf(w, "%-16s %14.0f %14.0f %8.3fx\n", "WEIGHTED MEAN", r.WeightedOn, r.WeightedOff,
		r.WeightedOff/r.WeightedOn)
	fmt.Fprintf(w, "steady per-req: guards=%.1f fails=%.1f ic-hit=%.1f ic-miss=%.1f ic-mega=%.1f\n",
		r.GuardsPerReq, r.GuardFailsPerReq, r.ICHitsPerReq, r.ICMissesPerReq, r.ICMegaPerReq)
	fmt.Fprintf(w, "generic prop calls/req: %.1f with shapes vs %.1f without (%.1fx drop)\n",
		r.GenericOnPerReq, r.GenericOffPerReq, genericDrop(r))
	fmt.Fprintf(w, "mono-only run: %d shape guards, %d IC ops, %d generic calls\n",
		r.MonoGuards, r.MonoICOps, r.MonoGeneric)
	if err := r.GateErr(); err != nil {
		fmt.Fprintf(w, "gate: FAIL — %v\n", err)
	} else {
		fmt.Fprintf(w, "gate: ok (>=5x generic drop, cycles improved, mono guard-only, outputs identical)\n")
	}
}

// genericDrop is the off/on generic-call ratio for display.
func genericDrop(r *ShapesResult) float64 {
	if r.GenericOnPerReq == 0 {
		return r.GenericOffPerReq
	}
	return r.GenericOffPerReq / r.GenericOnPerReq
}
