// Package server simulates a web server resuming production traffic
// after a restart — the Figure 9 experiment: JITed code grows as
// profiling translations are minted (point A), the global trigger
// recompiles everything and publishes optimized code (points B–C),
// and requests-per-second climbs to (and transiently beyond) the
// steady-state level as redirected fleet traffic lands on the warmed
// server. Point D (code cache full) appears when the cache limit is
// small enough to be hit.
package server

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/perflab"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Sample is one timeline point.
type Sample struct {
	Minute float64
	// CodeBytes is total JITed code resident.
	CodeBytes uint64
	// RPSPct is throughput relative to steady state (100 = steady).
	RPSPct float64
	// Event holds the lifecycle points reached this minute, in a fixed
	// "J", "A", "C", "D", "F", "R" order ("J" jumpstarted from a
	// snapshot, "A" profiling done, "C" optimized published, "D" cache
	// full, "F" first contained translation fault, "R" first code-cache
	// recycle). Coincident events all appear: a minute where
	// profiling finishes and the optimized code is published reads
	// "AC".
	Event string
}

// Config tunes the simulation.
type Config struct {
	// Minutes of simulated time.
	Minutes int
	// CyclesPerMinute is the server's compute budget per simulated
	// minute.
	CyclesPerMinute uint64
	// JIT is the engine configuration.
	JIT jit.Config
	// Utilization is the steady-state demand as a fraction of server
	// capacity (production servers keep headroom; the headroom is
	// what lets a warmed server absorb redirected fleet traffic and
	// exceed 100% of steady-state RPS).
	Utilization float64
	// FleetWaveAt/FleetWaveMinutes: when other restart waves shift
	// extra traffic here (the >100% RPS stretch in Figure 9).
	FleetWaveAt      int
	FleetWaveMinutes int
	// Seed for request-mix sampling.
	Seed int64
	// Workers is the number of concurrent request workers (simulated
	// cores); 0 reads as 1. N worker VMs share one JIT: each worker
	// gets a full per-minute cycle budget and its own seeded request
	// stream, and RPSPct is reported against N× the single-core
	// steady-state throughput. With N > 1 the global retranslation runs
	// on a background compiler goroutine; a single worker compiles
	// inline, so its timeline is deterministic.
	Workers int
	// Jumpstart, when set, warm-starts the restarted server from a
	// persisted profile snapshot before it serves its first request:
	// profiling is skipped and optimized code is published
	// immediately. The time the optimizing compiler spends is charged
	// against minute 0's cycle budget — warm starts are not free, just
	// much cheaper than minutes of profiling.
	Jumpstart *jumpstart.Snapshot
}

// DefaultConfig approximates the paper's 30-minute window.
func DefaultConfig() Config {
	c := Config{
		Minutes:          30,
		CyclesPerMinute:  2_500_000,
		JIT:              jit.DefaultConfig(),
		Utilization:      0.62,
		FleetWaveAt:      10,
		FleetWaveMinutes: 6,
		Seed:             1,
	}
	c.JIT.ProfileTrigger = 15000
	return c
}

// Result is the full timeline plus steady-state calibration.
type Result struct {
	Samples []Sample
	// SteadyRPS is the calibrated steady-state requests/minute.
	SteadyRPS float64
	// SteadyCodeBytes is the steady-state code footprint.
	SteadyCodeBytes uint64
	// PctTimeInLiveCode approximates the paper's "8% of JITed-code
	// time in live translations" steady-state metric. It is computed
	// from simulated cycle time — machine cycles spent in live
	// tracelets as a share of machine cycles in live + optimized code
	// — not from code bytes.
	PctTimeInLiveCode float64
	// MinutesTo90 is the first simulated minute at which throughput
	// reached 90% of steady state (time-to-90%-steady-RPS, the warmup
	// metric jumpstart attacks); MinutesTo90Never if the run ended
	// before getting there. Check Reached90 before treating it as a
	// time.
	MinutesTo90 float64
	// JumpstartLoad reports snapshot acceptance when Config.Jumpstart
	// was set.
	JumpstartLoad jit.JumpstartResult
	// Direct-chaining activity over the run: smash sites bound,
	// transfers that stayed inside the code cache (jumps + calls),
	// and links invalidated by the optimized-index publish.
	BindsSmashed     uint64
	ChainedTransfers uint64
	LinksSwept       uint64
	// Self-healing activity over the run (zero in fault-free runs):
	// contained translation faults, translations evicted by cache
	// recycling, and recycle episodes (DESIGN.md §11).
	TransFaults uint64
	Evictions   uint64
	RecycleRuns uint64
}

// MinutesTo90Never is the sentinel MinutesTo90 value reporting that
// throughput never reached 90% of steady state within the simulated
// window. It is negative so arithmetic misuse is loud; consumers must
// check Reached90 (or compare against this constant) instead of
// reading the value as a minute.
const MinutesTo90Never = -1

// Reached90 reports whether the run ever reached 90% of steady-state
// RPS — whether MinutesTo90 holds a real minute rather than the
// MinutesTo90Never sentinel.
func (r *Result) Reached90() bool { return r.MinutesTo90 != MinutesTo90Never }

// Simulate runs the restart timeline.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Minutes == 0 {
		cfg = DefaultConfig()
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > 1 {
		// Request workers must keep serving while the optimizing
		// compiler runs: hand the global retranslation to a background
		// goroutine instead of stalling the triggering worker.
		cfg.JIT.BackgroundCompile = true
	}
	// Calibrate steady state with a fully warmed engine.
	steadyEng, eps, err := perflab.NewEngine(cfg.JIT)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func(r *rand.Rand) workload.Endpoint {
		x := r.Float64()
		acc := 0.0
		for _, ep := range eps {
			acc += ep.Weight
			if x <= acc {
				return ep
			}
		}
		return eps[len(eps)-1]
	}
	for i := 0; i < 60; i++ {
		for _, ep := range eps {
			if _, _, err := perflab.RunEndpoint(steadyEng, ep.Name); err != nil {
				return nil, err
			}
		}
	}
	var steadyCycles uint64
	steadyN := 0
	for i := 0; i < 40; i++ {
		ep := pick(rng)
		c, _, err := perflab.RunEndpoint(steadyEng, ep.Name)
		if err != nil {
			return nil, err
		}
		steadyCycles += c
		steadyN++
	}
	steadyPerReq := float64(steadyCycles) / float64(steadyN)
	if cfg.Utilization == 0 {
		cfg.Utilization = 0.62
	}
	capacityRPS := float64(cfg.CyclesPerMinute) / steadyPerReq
	steadyRPS := cfg.Utilization * capacityRPS

	// Fresh server: replay the restart.
	eng, _, err := perflab.NewEngine(cfg.JIT)
	if err != nil {
		return nil, err
	}
	res := &Result{
		SteadyRPS: steadyRPS,
		SteadyCodeBytes: steadyEng.Stats().BytesOptimized +
			steadyEng.Stats().BytesLive + steadyEng.Stats().BytesProfiling,
	}
	// Jumpstart: load the snapshot before the first request lands. The
	// optimizing compiler's cycles are charged against minute 0.
	var jumpstartCycles uint64
	if cfg.Jumpstart != nil {
		before := eng.Cycles()
		res.JumpstartLoad = eng.LoadProfile(cfg.Jumpstart)
		jumpstartCycles = eng.Cycles() - before
	}
	// Worker pool: worker 0 is the engine's primary VM; extra workers
	// share its JIT (translation index, counters, code cache) with
	// private interpreter state. Each worker draws from its own seeded
	// request stream so multi-worker runs are reproducible.
	ws := make([]*vm.VM, workers)
	ws[0] = eng.VM
	rngs := make([]*rand.Rand, workers)
	rngs[0] = rand.New(rand.NewSource(cfg.Seed + 1))
	for i := 1; i < workers; i++ {
		ws[i] = eng.NewWorker(io.Discard)
		rngs[i] = rand.New(rand.NewSource(cfg.Seed + 1 + int64(i)))
	}

	sawOptimize := cfg.Jumpstart != nil && res.JumpstartLoad.Optimized
	sawProfilingDone := sawOptimize
	sawFull := false
	sawFault := false
	sawRecycle := false
	jumpEvent := sawOptimize
	for minute := 0; minute < cfg.Minutes; minute++ {
		// Fleet-wave overload window: load balancers shift traffic of
		// restarting peers onto this (now warm) server.
		demand := steadyRPS
		if minute >= cfg.FleetWaveAt && minute < cfg.FleetWaveAt+cfg.FleetWaveMinutes {
			demand = steadyRPS * 1.6
		}
		budgetFor := func(worker int) uint64 {
			budget := cfg.CyclesPerMinute
			// The jumpstart load ran on the primary before serving
			// started; its cycles come out of worker 0's first minute.
			if worker == 0 && minute == 0 && jumpstartCycles > 0 {
				if jumpstartCycles >= budget {
					return 0
				}
				return budget - jumpstartCycles
			}
			return budget
		}
		served := 0
		perWorker := make([]int, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, budget := ws[i], budgetFor(i)
				start := v.Meter.Cycles
				for float64(perWorker[i]) < demand && v.Meter.Cycles-start < budget {
					ep := pick(rngs[i])
					if _, _, err := perflab.RunEndpointVM(v, ep.Name); err != nil {
						errs[i] = err
						return
					}
					perWorker[i]++
				}
			}(i)
		}
		wg.Wait()
		for i := range errs {
			if errs[i] != nil {
				return nil, errs[i]
			}
			served += perWorker[i]
		}
		st := eng.Stats()
		code := st.BytesProfiling + st.BytesOptimized + st.BytesLive
		// Coincident lifecycle events are concatenated (fixed J, A, C,
		// D order), never overwritten. "A" (profiling done) latches
		// even when the optimize trigger fires the same minute.
		ev := ""
		if jumpEvent {
			ev += "J"
			jumpEvent = false
		}
		if !sawProfilingDone && st.ProfilingTranslations > 0 &&
			(minute >= 1 || st.OptimizeRuns > 0) {
			ev += "A"
			sawProfilingDone = true
		}
		if !sawOptimize && st.OptimizeRuns > 0 {
			ev += "C"
			sawOptimize = true
		}
		if !sawFull && st.CacheFullEvents > 0 {
			ev += "D"
			sawFull = true
		}
		if !sawFault && st.TransFaults > 0 {
			ev += "F"
			sawFault = true
		}
		if !sawRecycle && st.RecycleRuns > 0 {
			ev += "R"
			sawRecycle = true
		}
		res.Samples = append(res.Samples, Sample{
			Minute:    float64(minute + 1),
			CodeBytes: code,
			RPSPct:    100 * float64(served) / (steadyRPS * float64(workers)),
			Event:     ev,
		})
	}
	st := eng.Stats()
	// Share of JITed-code *cycle time* spent in live translations
	// (live vs optimized; profiling-translation time is warmup, not
	// steady state, and is excluded).
	if denom := st.MachineCyclesLive + st.MachineCyclesOptimized; denom > 0 {
		res.PctTimeInLiveCode = 100 * float64(st.MachineCyclesLive) / float64(denom)
	}
	res.BindsSmashed = st.BindsSmashed
	res.ChainedTransfers = st.ChainedJumps + st.ChainedCalls
	res.LinksSwept = st.LinksSwept
	res.TransFaults = st.TransFaults
	res.Evictions = st.Evictions
	res.RecycleRuns = st.RecycleRuns
	res.MinutesTo90 = MinutesTo90Never
	for _, s := range res.Samples {
		if s.RPSPct >= 90 {
			res.MinutesTo90 = s.Minute
			break
		}
	}
	return res, nil
}

// WarmSnapshot runs a donor server to steady state under cfg and
// returns its profile snapshot — the artifact a production fleet
// persists periodically and ships to restarting peers. The donor is
// driven with the endpoint suite until the global retranslation
// trigger fires (bounded), so the snapshot holds a full profile.
func WarmSnapshot(cfg Config) (*jumpstart.Snapshot, error) {
	if cfg.Minutes == 0 {
		cfg = DefaultConfig()
	}
	eng, eps, err := perflab.NewEngine(cfg.JIT)
	if err != nil {
		return nil, err
	}
	for round := 0; round < 300 && eng.Stats().OptimizeRuns == 0; round++ {
		for _, ep := range eps {
			if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
				return nil, err
			}
		}
	}
	return eng.ProfileSnapshot(), nil
}

// Report renders the timeline.
func Report(w io.Writer, r *Result) {
	fmt.Fprintf(w, "%6s %12s %8s %s\n", "minute", "code(bytes)", "RPS%", "event")
	for _, s := range r.Samples {
		fmt.Fprintf(w, "%6.0f %12d %8.1f %s\n", s.Minute, s.CodeBytes, s.RPSPct, s.Event)
	}
	fmt.Fprintf(w, "steady RPS=%.1f/min, steady code=%d bytes, live-code time share=%.1f%%\n",
		r.SteadyRPS, r.SteadyCodeBytes, r.PctTimeInLiveCode)
	if r.Reached90() {
		fmt.Fprintf(w, "time to 90%% steady RPS: minute %.0f\n", r.MinutesTo90)
	} else {
		fmt.Fprintf(w, "time to 90%% steady RPS: not reached\n")
	}
	if jl := r.JumpstartLoad; jl.LoadedTrans > 0 || len(jl.StaleFuncs) > 0 {
		fmt.Fprintf(w, "jumpstart: %d funcs, %d translations loaded; %d stale, %d unknown\n",
			jl.LoadedFuncs, jl.LoadedTrans, len(jl.StaleFuncs), len(jl.UnknownFuncs))
	}
	if r.BindsSmashed > 0 {
		fmt.Fprintf(w, "chaining: %d sites smashed, %d direct transfers, %d links swept at publish\n",
			r.BindsSmashed, r.ChainedTransfers, r.LinksSwept)
	}
	if r.TransFaults > 0 || r.RecycleRuns > 0 {
		fmt.Fprintf(w, "self-healing: %d faults contained, %d recycle runs, %d translations evicted\n",
			r.TransFaults, r.RecycleRuns, r.Evictions)
	}
}
