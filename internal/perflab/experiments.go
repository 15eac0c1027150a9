package perflab

// The paper's evaluation (Figures 8-11, the in-text §6.1 numbers) and
// the acceptance experiments; EXPERIMENTS.md records paper vs measured.

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/vm"
)

// Session is one cmd/bench invocation: where the experiments report,
// at which volume, and the rows they leave for -json.
type Session struct {
	Out   io.Writer
	Quick bool
	// FaultSeed and FaultRate drive the faults experiment's injector.
	FaultSeed int64
	FaultRate float64
	// JSON holds the machine-readable rows (fig8, faults) of the
	// experiments that ran; the others stay null.
	JSON struct {
		Fig8   []Fig8Row     `json:"fig8,omitempty"`
		Faults *FaultsResult `json:"faults,omitempty"`
	}
}

func (s *Session) volume() Config {
	if s.Quick {
		return Quick
	}
	return Full
}

// Experiment is one entry of the table cmd/bench runs.
type Experiment struct {
	Name string
	Run  func(*Session) error
}

// Experiments lists every experiment in the order `-exp all` runs them.
var Experiments = []Experiment{
	{"fig8", func(s *Session) error {
		rows, err := Fig8(s.volume())
		if err == nil {
			ReportFig8(s.Out, rows)
			s.JSON.Fig8 = rows
		}
		return err
	}},
	{"fig9", func(s *Session) error {
		res, err := Simulate(DefaultServerConfig())
		if err == nil {
			ReportTimeline(s.Out, res)
		}
		return err
	}},
	{"jumpstart", func(s *Session) error {
		cfg := DefaultServerConfig()
		if s.Quick {
			cfg.Minutes, cfg.CyclesPerMinute = 20, 1_200_000
		}
		c, err := Jumpstart(cfg)
		if err == nil {
			ReportJumpstart(s.Out, c)
		}
		return err
	}},
	{"faults", func(s *Session) error {
		res, err := Faults(s.volume(), s.FaultSeed, s.FaultRate)
		if err != nil {
			return err
		}
		ReportFaults(s.Out, res)
		s.JSON.Faults = res
		if !res.OutputsMatch {
			return fmt.Errorf("faulty outputs diverged from JIT-disabled reference")
		}
		if res.SlowdownPct > 25 {
			return fmt.Errorf("faulty run %.1f%% slower than baseline (budget 25%%)", res.SlowdownPct)
		}
		return nil
	}},
	{"fig10", func(s *Session) error {
		rows, err := Fig10(s.volume())
		if err == nil {
			ReportFig10(s.Out, rows)
		}
		return err
	}},
	{"fig11", func(s *Session) error {
		rows, err := Fig11(s.volume(), nil)
		if err == nil {
			ReportFig11(s.Out, rows)
		}
		return err
	}},
}

// Select returns the experiments a comma-separated list names, in
// table order; "all" names every one. A name the table lacks is an
// error that lists the valid ones.
func Select(list string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		want[strings.TrimSpace(name)] = true
	}
	names := []string{"all"}
	var sel []Experiment
	for _, e := range Experiments {
		if want["all"] || want[e.Name] {
			sel = append(sel, e)
		}
		delete(want, e.Name)
		names = append(names, e.Name)
	}
	delete(want, "all")
	if len(want) > 0 {
		return nil, fmt.Errorf("-exp %q names an unknown experiment (valid: %s)", list, strings.Join(names, ", "))
	}
	return sel, nil
}

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
func Fig8(pc Config) ([]Fig8Row, error) {
	modes := []jit.Mode{jit.ModeInterp, jit.ModeTracelet, jit.ModeProfiling, jit.ModeRegion}
	rows := make([]Fig8Row, 0, len(modes))
	var regionMean float64
	for _, m := range modes {
		cfg := jit.DefaultConfig()
		cfg.Mode = m
		r, err := Measure(cfg, pc)
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

// ---------- Jumpstart: warm-start restart vs cold restart ----------

// JumpstartComparison holds the cold and warm restart timelines under
// identical seed and configuration.
type JumpstartComparison struct {
	Cold, Warm *Timeline
}

// Jumpstart replays the Figure 9 restart twice with the same seed and
// config: once cold (live profiling, global trigger) and once
// jumpstarted from a profile snapshot taken on a warmed donor server.
// The headline metric is time-to-90%-of-steady-RPS.
func Jumpstart(cfg ServerConfig) (*JumpstartComparison, error) {
	cold, err := Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("jumpstart cold run: %w", err)
	}
	snap, err := WarmSnapshot(cfg)
	if err != nil {
		return nil, fmt.Errorf("jumpstart donor: %w", err)
	}
	cfg.Jumpstart = snap
	warm, err := Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("jumpstart warm run: %w", err)
	}
	return &JumpstartComparison{Cold: cold, Warm: warm}, nil
}

// ReportJumpstart renders both timelines and the headline numbers.
func ReportJumpstart(w io.Writer, c *JumpstartComparison) {
	fmt.Fprintf(w, "Jumpstart — restart timeline, cold vs warm-started from a profile snapshot\n")
	fmt.Fprintf(w, "\n--- cold restart (live profiling) ---\n")
	ReportTimeline(w, c.Cold)
	fmt.Fprintf(w, "\n--- jumpstarted restart (snapshot warm start) ---\n")
	ReportTimeline(w, c.Warm)
	fmt.Fprintf(w, "\ntime to 90%% steady RPS: cold=%s, jumpstart=%s\n",
		fmtMinutes(c.Cold.MinutesTo90), fmtMinutes(c.Warm.MinutesTo90))
}

func fmtMinutes(m float64) string {
	if m < 0 {
		return "never"
	}
	return fmt.Sprintf("minute %.0f", m)
}

// ---------- Figure 10: optimization impact ----------

// Fig10Row is one bar of Figure 10.
type Fig10Row struct {
	Optimization string
	SlowdownPct  float64
	PaperPct     float64
}

// fig10Variants lists the ablations and the paper's reported numbers.
var fig10Variants = []struct {
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

// Fig10 measures the slowdown from disabling each optimization.
func Fig10(pc Config) ([]Fig10Row, error) {
	baseline, err := Measure(jit.DefaultConfig(), pc)
	if err != nil {
		return nil, fmt.Errorf("fig10 baseline: %w", err)
	}
	var rows []Fig10Row
	for _, v := range fig10Variants {
		cfg := jit.DefaultConfig()
		v.mod(&cfg)
		r, err := Measure(cfg, pc)
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
func Fig11(pc Config, fractions []float64) ([]Fig11Row, error) {
	if fractions == nil {
		fractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	}
	baseline, err := Measure(jit.DefaultConfig(), pc)
	if err != nil {
		return nil, fmt.Errorf("fig11 baseline: %w", err)
	}
	baseBytes := baseline.CodeBytes
	if baseBytes == 0 {
		return nil, fmt.Errorf("fig11: baseline produced no JITed code")
	}
	var rows []Fig11Row
	for _, f := range fractions {
		cfg := jit.DefaultConfig()
		cfg.CodeCacheLimit = uint64(f * float64(baseBytes))
		if cfg.CodeCacheLimit == 0 {
			cfg.CodeCacheLimit = 1
		}
		r, err := Measure(cfg, pc)
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
}

// Faults runs the fault-injection experiment: a fault-free baseline,
// an all-faults-on run (every kind at rate), a 4-worker concurrent
// run under the same injection, and a forced cache-recycling episode.
func Faults(pc Config, seed int64, rate float64) (*FaultsResult, error) {
	res := &FaultsResult{Seed: seed, Rate: rate, Fired: map[string]uint64{}}

	// JIT-disabled reference outputs: the fidelity oracle.
	interpCfg := jit.DefaultConfig()
	interpCfg.Mode = jit.ModeInterp
	ref, err := Measure(interpCfg, pc)
	if err != nil {
		return nil, fmt.Errorf("faults interp reference: %w", err)
	}
	refOut := map[string]string{}
	for _, ep := range ref.Endpoints {
		refOut[ep.Name] = ep.Output
	}

	// Fault-free baseline.
	base, err := Measure(jit.DefaultConfig(), pc)
	if err != nil {
		return nil, fmt.Errorf("faults baseline: %w", err)
	}
	res.BaselineCycles = base.WeightedMean

	// All faults on. The injected engine must complete the full
	// warmup+measure protocol (Measure itself rejects nondeterministic
	// output) and match the interpreter bit-for-bit.
	cfg := jit.DefaultConfig()
	cfg.Faults = faultinject.New(faultinject.EnableAll(seed, rate))
	faulty, err := Measure(cfg, pc)
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
	donor, deps, err := NewEngine(jit.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("faults snapshot donor: %w", err)
	}
	optimized := func() bool { return donor.Stats().OptimizeRuns > 0 }
	if err := Warm(donor, deps, 200, optimized); err != nil {
		return nil, fmt.Errorf("faults snapshot donor %w", err)
	}
	jcfg := jit.DefaultConfig()
	jcfg.Faults = cfg.Faults // accumulate onto the same injector's counters
	jeng, _, err := NewEngine(jcfg)
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
	wcfg := jit.DefaultConfig()
	wcfg.BackgroundCompile = true
	wcfg.Faults = faultinject.New(faultinject.EnableAll(seed+1, rate))
	weng, eps, err := NewEngine(wcfg)
	if err != nil {
		return nil, fmt.Errorf("faults worker engine: %w", err)
	}
	const workers = 4
	res.Workers = workers
	rounds := pc.WarmupRequests + pc.MeasureRequests
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
					_, out, err := RunEndpointVM(v, ep.Name)
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
	probe := jit.DefaultConfig()
	probe.Mode = jit.ModeTracelet
	probeRes, err := Measure(probe, pc)
	if err != nil {
		return nil, fmt.Errorf("faults recycle probe: %w", err)
	}
	rcfg := jit.DefaultConfig()
	rcfg.Mode = jit.ModeTracelet
	rcfg.CodeCacheLimit = probeRes.CodeBytes / 3
	if rcfg.CodeCacheLimit == 0 {
		rcfg.CodeCacheLimit = 1
	}
	reng, reps, err := NewEngine(rcfg)
	if err != nil {
		return nil, fmt.Errorf("faults recycle engine: %w", err)
	}
	for r := 0; r < rounds; r++ {
		for _, ep := range reps {
			if _, out, err := RunEndpoint(reng, ep.Name); err != nil {
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
	fmt.Fprintf(w, "recycle episode: %d cache-full events, %d recycle runs, %d evictions (%d bytes), latch cleared=%v\n",
		rc.CacheFullEvents, rc.RecycleRuns, rc.Evictions, rc.EvictedBytes, rc.LatchCleared)
}
