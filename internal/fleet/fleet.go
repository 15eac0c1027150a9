package fleet

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/sentry"
	"repro/internal/server"
	"repro/internal/workload"
)

// Config tunes the fleet simulation.
type Config struct {
	// Hosts is the fleet size; Minutes the simulated horizon.
	Hosts   int
	Minutes int
	// CyclesPerMinute is one full-capacity host's compute budget per
	// simulated minute (scaled per host by its capacity factor).
	CyclesPerMinute uint64
	// JIT configures every host's engine.
	JIT jit.Config
	// Seed drives traffic sampling; runs with equal seeds are
	// bit-identical.
	Seed int64
	// Utilization is steady-state fleet demand as a fraction of fleet
	// capacity (the headroom is what absorbs deploy spillover).
	Utilization float64

	// Traffic model: a Users-sized simulated population with Zipfian
	// activity (UserZipfS) hitting endpoints with Zipfian popularity
	// (EndpointZipfS), modulated by a diurnal sinusoid of amplitude
	// DiurnalAmp over DiurnalPeriod minutes (0 period = flat).
	Users         int
	UserZipfS     float64
	EndpointZipfS float64
	DiurnalAmp    float64
	DiurnalPeriod int

	// Load balancer: UniformFraction of traffic is sprayed evenly
	// across healthy hosts (the round-robin tier); the rest routes
	// weighted least-loaded. CapacitySpread staggers per-host capacity
	// factors (hardware generations): host i runs at
	// 1 - CapacitySpread*(i%3)/2 of full speed.
	UniformFraction float64
	CapacitySpread  float64

	// Aggregator: every PublishEvery minutes each live host ships its
	// profile snapshot and the service merges the round at decay
	// AggDecay. PublishEvery <= 0 disables the aggregator entirely.
	PublishEvery int
	AggDecay     float64

	// Rolling restart: starting at minute RestartAt (0 disables),
	// every RestartStagger minutes the next host is taken down for
	// RestartDown minutes. RestartCount limits how many hosts restart
	// (0 = the whole fleet). WarmRestart hands each rejoining host the
	// aggregator's warm aggregate; otherwise hosts rejoin cold.
	RestartAt      int
	RestartStagger int
	RestartDown    int
	RestartCount   int
	WarmRestart    bool

	// Overload: demand is multiplied by OverloadFactor during
	// [OverloadAt, OverloadAt+OverloadMinutes). Shedding (on unless
	// DisableShed) walks a host down the PR 5 degradation ladder one
	// rung per minute while its assigned load exceeds ShedRatio× its
	// capacity, and drops queue beyond one minute of work; with
	// shedding disabled a host whose backlog passes DeathBacklog×
	// capacity dies and leaves the rotation for good.
	OverloadFactor  float64
	OverloadAt      int
	OverloadMinutes int
	DisableShed     bool
	ShedRatio       float64
	DeathBacklog    float64

	// VerifySample, when > 0, attaches a sentry monitor to every
	// host: that fraction of its requests is shadow-executed and
	// compared, its code cache is audited one chunk per minute, and a
	// host that produces a verified divergence is pushed one rung
	// down the degradation ladder so the balancer shifts traffic away
	// while the culprit translation sits in quarantine.
	VerifySample float64
}

// DefaultConfig is an 8-host fleet over the paper's 30-minute-style
// window, aggregator on, no deploy or overload scheduled.
func DefaultConfig() Config {
	c := Config{
		Hosts:           8,
		Minutes:         24,
		CyclesPerMinute: 2_500_000,
		JIT:             jit.DefaultConfig(),
		Seed:            1,
		Utilization:     0.62,
		Users:           2_000_000,
		UserZipfS:       1.4,
		EndpointZipfS:   1.2,
		DiurnalAmp:      0.2,
		DiurnalPeriod:   24,
		UniformFraction: 0.25,
		CapacitySpread:  0.15,
		PublishEvery:    2,
		AggDecay:        0.9,
		RestartStagger:  1,
		RestartDown:     1,
		OverloadFactor:  2,
		ShedRatio:       1.15,
		DeathBacklog:    3,
	}
	// Each host sees roughly 1/Hosts of the traffic internal/server
	// pushes through one engine, so the profiling trigger is scaled
	// down to keep per-host warmup on the same few-minute timescale.
	c.JIT.ProfileTrigger = 9000
	return c
}

// recoverRatio: a host leaves the shed ladder once its assigned load
// falls back below this fraction of capacity.
const recoverRatio = 0.95

// host is one simulated server in the rotation.
type host struct {
	id        int
	capFactor float64
	// capacityRPS is requests/minute at full optimized speed;
	// steadyRPS is the host's share of steady-state demand (the 100%
	// line of its warmup curve).
	capacityRPS float64
	steadyRPS   float64

	eng     *core.Engine
	stream  *workload.Stream
	backlog float64
	downFor int
	died    bool

	// mon is the host's sentry monitor (nil when verification is
	// off); lastDiv tracks divergences already reacted to, so each
	// new one demotes the host exactly once.
	mon     *sentry.Monitor
	lastDiv uint64

	// warmCycles is the jumpstart-load cost charged against the next
	// serving minute's budget.
	warmCycles uint64
	// restartMinute is the minute the host last (re)joined; to90 its
	// warmup metric since then (server.MinutesTo90Never until hit).
	restartMinute int
	to90          float64
	sawOpt        bool
	maxDegrade    int32
	// lastRestart indexes Result.Restarts for backfilling to90.
	lastRestart int

	pendingEvent string
	samples      []HostSample
}

func (h *host) routable() bool { return h.eng != nil && h.downFor == 0 && !h.died }

// HostSample is one minute of one host's timeline.
type HostSample struct {
	Minute float64
	// RPSPct is requests served relative to the host's steady share
	// (100 = steady).
	RPSPct float64
	// AssignedPct is the load the balancer routed here relative to
	// host capacity (over 100 = overloaded).
	AssignedPct float64
	// Backlog is the request queue carried into the next minute.
	Backlog float64
	// Degrade is the degradation-ladder level at minute end.
	Degrade int32
	// CodeBytes is resident JITed code.
	CodeBytes uint64
	// Up reports the host was in rotation this minute.
	Up bool
	// Event concatenates lifecycle letters: "J" warm jumpstart, "C"
	// optimized publish, "R" taken down for restart, "U" rejoined,
	// "S" shed escalation, "V" shed recovery, "X" died, "D" verified
	// divergence (host demoted, culprit quarantined).
	Event string
}

// Sample is one minute of the fleet timeline.
type Sample struct {
	Minute float64
	// OfferedRPS / ServedRPS / ShedRPS / LostRPS are request volumes:
	// offered by the traffic model (plus deploy spillover), served by
	// hosts, dropped by shedding, lost to dead/empty rotations.
	OfferedRPS float64
	ServedRPS  float64
	ShedRPS    float64
	LostRPS    float64
	// CapacityPct is served/offered — the fleet's ability to carry
	// the minute's demand (the rolling-deploy acceptance metric).
	CapacityPct float64
	// FleetRPSPct is served relative to steady-state fleet RPS.
	FleetRPSPct float64
	// HostsUp counts hosts in rotation; MaxDegrade the worst
	// degradation level in the fleet.
	HostsUp    int
	MaxDegrade int32
	// AggStalenessMin is how many minutes the published aggregate
	// lags this minute.
	AggStalenessMin float64
	// Backlog is the fleet-wide queue at minute end.
	Backlog float64
}

// RestartRecord describes one host restart.
type RestartRecord struct {
	Host int
	// DownMinute / UpMinute bracket the out-of-rotation window.
	DownMinute int
	UpMinute   int
	// Warm reports the host rejoined with the aggregator's warm
	// aggregate; LoadedTrans how many profiling translations it
	// re-minted; StalenessMin the aggregate's age at pull time.
	Warm         bool
	LoadedTrans  int
	StalenessMin float64
	// MinutesTo90 is minutes from rejoining to 90% of the host's
	// steady RPS (server.MinutesTo90Never if not reached in-window).
	MinutesTo90 float64
}

// Result is the full fleet timeline plus acceptance metrics.
type Result struct {
	Hosts int
	// FleetSteadyRPS is the calibrated steady-state fleet throughput;
	// HostSteadyRPS each host's share; HostCapacityRPS each host's
	// full-speed capacity.
	FleetSteadyRPS  float64
	HostSteadyRPS   []float64
	HostCapacityRPS []float64

	Samples []Sample
	// HostTimelines[i] is host i's per-minute curve (warmup curves,
	// shed levels).
	HostTimelines [][]HostSample
	Restarts      []RestartRecord

	// MinutesTo90 is the fleet-level warmup metric: first minute
	// fleet throughput reached 90% of steady state
	// (server.MinutesTo90Never if never).
	MinutesTo90 float64

	// Requests / UniqueUsers / Users describe the traffic actually
	// served: total requests, distinct simulated users seen, and the
	// modeled population size.
	Requests    uint64
	UniqueUsers uint64
	Users       int

	// OutputMismatches counts requests whose output differed from the
	// single-host reference (must be 0: fleet serving is bit-identical
	// to single-host serving).
	OutputMismatches uint64

	// ShedRequests / LostRequests / HostsDied summarize overload
	// behavior; MaxDegradePerHost the worst ladder level each host
	// reached.
	ShedRequests      float64
	LostRequests      float64
	HostsDied         int
	MaxDegradePerHost []int32

	Aggregator AggregatorStats
	// Verify sums every host monitor's counters over the run (audit
	// findings, shadow comparisons, divergences, quarantined
	// culprits) when Config.VerifySample was set.
	Verify sentry.Stats
	// WallClock is host-machine time spent simulating (the raw-speed
	// companion to the simulated-cycle numbers).
	WallClock time.Duration
}

// Reached90 reports whether the fleet ever hit 90% of steady RPS.
func (r *Result) Reached90() bool { return r.MinutesTo90 != server.MinutesTo90Never }

// MinCapacityPct returns the minimum CapacityPct over sample minutes
// [from, to) (1-based minutes; to <= 0 means through the end) — the
// rolling-deploy acceptance metric.
func (r *Result) MinCapacityPct(from, to int) float64 {
	min := 100.0
	for _, s := range r.Samples {
		if int(s.Minute) < from || (to > 0 && int(s.Minute) >= to) {
			continue
		}
		if s.CapacityPct < min {
			min = s.CapacityPct
		}
	}
	return min
}

// capFactorFor staggers host capacity (hardware generations).
func capFactorFor(i int, spread float64) float64 {
	return 1 - spread*float64(i%3)/2
}

// Simulate runs the fleet timeline.
func Simulate(cfg Config) (*Result, error) {
	start := time.Now()
	if cfg.Hosts == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Utilization == 0 {
		cfg.Utilization = 0.62
	}
	if cfg.RestartStagger < 1 {
		cfg.RestartStagger = 1
	}
	if cfg.RestartDown < 1 {
		cfg.RestartDown = 1
	}
	if cfg.ShedRatio == 0 {
		cfg.ShedRatio = 1.15
	}
	if cfg.DeathBacklog == 0 {
		cfg.DeathBacklog = 3
	}
	if cfg.OverloadFactor == 0 {
		cfg.OverloadFactor = 2
	}
	if cfg.Users < 1 {
		cfg.Users = 1
	}

	// One compiled unit serves the whole fleet: engines only read it.
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	traffic := workload.NewTraffic(eps, cfg.Users, cfg.UserZipfS, cfg.EndpointZipfS)

	// Calibrate steady state and capture the single-host reference
	// outputs on one fully warmed engine.
	calib, err := core.NewEngine(unit, cfg.JIT, io.Discard)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 60; i++ {
		for _, ep := range eps {
			if _, _, err := perflab.RunEndpoint(calib, ep.Name); err != nil {
				return nil, err
			}
		}
	}
	refOut := map[string]string{}
	for _, ep := range eps {
		_, out, err := perflab.RunEndpoint(calib, ep.Name)
		if err != nil {
			return nil, err
		}
		refOut[ep.Name] = out
	}
	calibStream := traffic.NewStream(cfg.Seed)
	var steadyCycles uint64
	const steadyN = 40
	for i := 0; i < steadyN; i++ {
		_, ep := calibStream.Next()
		c, _, err := perflab.RunEndpoint(calib, ep.Name)
		if err != nil {
			return nil, err
		}
		steadyCycles += c
	}
	steadyPerReq := float64(steadyCycles) / steadyN

	res := &Result{
		Hosts:       cfg.Hosts,
		MinutesTo90: server.MinutesTo90Never,
		Users:       cfg.Users,
	}
	hosts := make([]*host, cfg.Hosts)
	for i := range hosts {
		cf := capFactorFor(i, cfg.CapacitySpread)
		capRPS := cf * float64(cfg.CyclesPerMinute) / steadyPerReq
		h := &host{
			id:            i,
			capFactor:     cf,
			capacityRPS:   capRPS,
			steadyRPS:     cfg.Utilization * capRPS,
			stream:        traffic.NewStream(cfg.Seed + 100 + int64(i)),
			restartMinute: 0,
			to90:          server.MinutesTo90Never,
			lastRestart:   -1,
		}
		if h.eng, err = core.NewEngine(unit, cfg.JIT, io.Discard); err != nil {
			return nil, err
		}
		if err := h.attachMonitor(cfg); err != nil {
			return nil, err
		}
		hosts[i] = h
		res.HostSteadyRPS = append(res.HostSteadyRPS, h.steadyRPS)
		res.HostCapacityRPS = append(res.HostCapacityRPS, capRPS)
		res.FleetSteadyRPS += h.steadyRPS
	}

	agg := NewAggregator(cfg.AggDecay)
	seenUsers := map[uint64]struct{}{}
	restartCount := cfg.RestartCount
	if restartCount <= 0 || restartCount > cfg.Hosts {
		restartCount = cfg.Hosts
	}
	nextRestart := 0
	var spill float64

	for minute := 0; minute < cfg.Minutes; minute++ {
		// --- Rolling-restart orchestration: rejoins first, so a host
		// taken down this minute stays out for its full window -------
		for _, h := range hosts {
			if h.downFor == 0 || h.died {
				continue
			}
			if h.downFor--; h.downFor > 0 {
				continue
			}
			// Rejoin: fresh engine, optionally jumpstarted from the
			// aggregator's warm aggregate. The load's compile cycles
			// are charged against this minute's serving budget.
			if h.eng, err = core.NewEngine(unit, cfg.JIT, io.Discard); err != nil {
				return nil, err
			}
			if err := h.attachMonitor(cfg); err != nil {
				return nil, err
			}
			rec := RestartRecord{
				Host:        h.id,
				DownMinute:  minute - cfg.RestartDown + 1,
				UpMinute:    minute + 1,
				MinutesTo90: server.MinutesTo90Never,
			}
			if cfg.WarmRestart && cfg.PublishEvery > 0 {
				if snap := agg.Warm(); snap != nil {
					before := h.eng.Cycles()
					jr := h.eng.LoadProfile(snap)
					h.warmCycles = h.eng.Cycles() - before
					rec.Warm = true
					rec.LoadedTrans = jr.LoadedTrans
					rec.StalenessMin = agg.StalenessAt(float64(minute))
					h.event("J")
				}
			}
			h.restartMinute = minute
			h.to90 = server.MinutesTo90Never
			h.sawOpt = false
			h.lastRestart = len(res.Restarts)
			res.Restarts = append(res.Restarts, rec)
			h.event("U")
		}
		if cfg.RestartAt > 0 && nextRestart < restartCount &&
			minute == cfg.RestartAt+nextRestart*cfg.RestartStagger {
			h := hosts[nextRestart]
			if !h.died {
				// Queued requests bounce back to the balancer; the old
				// engine (its code cache and profile) is discarded.
				spill += h.backlog
				h.backlog = 0
				h.closeMonitor(res)
				h.eng = nil
				h.downFor = cfg.RestartDown
				h.event("R")
			}
			nextRestart++
		}

		// --- Demand and routing ------------------------------------
		mult := workload.Diurnal(minute, cfg.DiurnalPeriod, cfg.DiurnalAmp)
		if cfg.OverloadMinutes > 0 && minute >= cfg.OverloadAt &&
			minute < cfg.OverloadAt+cfg.OverloadMinutes {
			mult *= cfg.OverloadFactor
		}
		offered := res.FleetSteadyRPS*mult + spill
		spill = 0
		shares := assign(offered, hosts, cfg.UniformFraction)
		var routed float64
		for _, s := range shares {
			routed += s
		}
		lost := offered - routed // nothing routable absorbs it
		if lost < 1e-6 {
			lost = 0
		}

		// --- Serve the minute (hosts are independent; each owns its
		// engine, stream, and meter, so they run concurrently) -------
		type minuteOut struct {
			served     int
			users      []uint64
			mismatches uint64
			err        error
		}
		outs := make([]minuteOut, len(hosts))
		var wg sync.WaitGroup
		for i, h := range hosts {
			if !h.routable() {
				continue
			}
			wg.Add(1)
			go func(i int, h *host) {
				defer wg.Done()
				o := &outs[i]
				want := h.backlog + shares[i]
				budget := uint64(float64(cfg.CyclesPerMinute) * h.capFactor)
				if h.warmCycles > 0 {
					if h.warmCycles >= budget {
						budget = 0
					} else {
						budget -= h.warmCycles
					}
					h.warmCycles = 0
				}
				begin := h.eng.Cycles()
				for float64(o.served) < want && h.eng.Cycles()-begin < budget {
					user, ep := h.stream.Next()
					_, out, err := perflab.RunEndpoint(h.eng, ep.Name)
					if err != nil {
						o.err = fmt.Errorf("host %d %s: %w", h.id, ep.Name, err)
						return
					}
					if out != refOut[ep.Name] {
						o.mismatches++
					}
					h.mon.Observe(ep.Name, out)
					o.users = append(o.users, user)
					o.served++
				}
				h.backlog = want - float64(o.served)
				if h.backlog < 0 {
					h.backlog = 0
				}
			}(i, h)
		}
		wg.Wait()

		var servedTotal, shedNow float64
		for i, h := range hosts {
			o := &outs[i]
			if o.err != nil {
				return nil, o.err
			}
			servedTotal += float64(o.served)
			res.Requests += uint64(o.served)
			res.OutputMismatches += o.mismatches
			for _, u := range o.users {
				seenUsers[u] = struct{}{}
			}
			if !h.routable() {
				h.sample(minute, 0, 0)
				continue
			}

			// --- Verification (deterministic, post-serve): audit one
			// chunk, drain pending shadow comparisons, and demote the
			// host once per new verified divergence so the balancer
			// shifts traffic away while the culprit is quarantined ---
			demotedNow := false
			if h.mon != nil {
				h.mon.AuditStep(0)
				h.mon.Drain()
				if vs := h.mon.Stats(); vs.Divergences > h.lastDiv {
					h.lastDiv = vs.Divergences
					if !cfg.DisableShed {
						j := h.eng.VM.JIT
						j.Shed(j.DegradeLevel() + 1)
						if lvl := j.DegradeLevel(); lvl > h.maxDegrade {
							h.maxDegrade = lvl
						}
						demotedNow = true
					}
					h.event("D")
				}
			}

			// --- Shedding / death (deterministic, post-serve) ------
			assignedRatio := shares[i] / h.capacityRPS
			if !cfg.DisableShed {
				j := h.eng.VM.JIT
				if assignedRatio > cfg.ShedRatio {
					j.Shed(j.DegradeLevel() + 1)
					h.event("S")
				} else if j.DegradeLevel() > jit.DegradeNone && assignedRatio < recoverRatio && !demotedNow {
					// A verification demotion holds for at least its
					// minute so the balancer actually shifts traffic.
					// Demand normalized: un-shed. Recovery keys off
					// assigned load, not the queue — a host degraded to
					// interp-only may never drain its backlog at interp
					// speed, and full-speed serving digs it out in a
					// minute anyway.
					j.RecoverShed()
					h.event("V")
				}
				if h.backlog > h.capacityRPS {
					// Keep at most one minute of queue; the rest is shed
					// (reported reduced capacity, not a dead host).
					shedNow += h.backlog - h.capacityRPS
					h.backlog = h.capacityRPS
				}
				if lvl := j.DegradeLevel(); lvl > h.maxDegrade {
					h.maxDegrade = lvl
				}
			} else if assignedRatio > 1 && h.backlog > cfg.DeathBacklog*h.capacityRPS {
				// Unprotected host: demand above capacity and a queue
				// past the death threshold — resource exhaustion. A
				// deep queue alone (cold start digging out, demand
				// under capacity) is recovery, not death. The host
				// leaves the rotation for good; its backlog is lost.
				h.died = true
				lost += h.backlog
				h.backlog = 0
				h.closeMonitor(res)
				h.eng = nil
				h.event("X")
			}

			// Warmup metrics.
			served := float64(o.served)
			if h.eng != nil {
				if st := h.eng.Stats(); !h.sawOpt && st.OptimizeRuns > 0 {
					h.sawOpt = true
					h.event("C")
				}
			}
			if h.to90 == server.MinutesTo90Never && served >= 0.9*h.steadyRPS {
				h.to90 = float64(minute - h.restartMinute + 1)
				if h.lastRestart >= 0 {
					res.Restarts[h.lastRestart].MinutesTo90 = h.to90
				}
			}
			h.sample(minute, served, assignedRatio)
		}
		res.ShedRequests += shedNow
		res.LostRequests += lost

		// --- Profile shipping --------------------------------------
		if cfg.PublishEvery > 0 && (minute+1)%cfg.PublishEvery == 0 {
			for _, h := range hosts {
				if h.routable() {
					agg.Publish(h.id, h.eng.ProfileSnapshot())
				}
			}
			agg.MergeRound(float64(minute + 1))
		}

		// --- Fleet sample ------------------------------------------
		s := Sample{
			Minute:          float64(minute + 1),
			OfferedRPS:      offered,
			ServedRPS:       servedTotal,
			ShedRPS:         shedNow,
			LostRPS:         lost,
			CapacityPct:     100,
			FleetRPSPct:     100 * servedTotal / res.FleetSteadyRPS,
			AggStalenessMin: agg.StalenessAt(float64(minute + 1)),
		}
		if offered > 0 {
			s.CapacityPct = 100 * servedTotal / offered
		}
		for _, h := range hosts {
			if h.routable() {
				s.HostsUp++
				if lvl := h.eng.VM.JIT.DegradeLevel(); lvl > s.MaxDegrade {
					s.MaxDegrade = lvl
				}
			}
			s.Backlog += h.backlog
		}
		if res.MinutesTo90 == server.MinutesTo90Never && s.FleetRPSPct >= 90 {
			res.MinutesTo90 = s.Minute
		}
		res.Samples = append(res.Samples, s)
	}

	for _, h := range hosts {
		h.closeMonitor(res)
		res.HostTimelines = append(res.HostTimelines, h.samples)
		res.MaxDegradePerHost = append(res.MaxDegradePerHost, h.maxDegrade)
		if h.died {
			res.HostsDied++
		}
	}
	res.UniqueUsers = uint64(len(seenUsers))
	res.Aggregator = agg.Stats()
	res.WallClock = time.Since(start)
	return res, nil
}

// attachMonitor starts a sentry monitor over the host's (fresh)
// engine when verification is configured.
func (h *host) attachMonitor(cfg Config) error {
	if cfg.VerifySample <= 0 || h.eng == nil {
		return nil
	}
	mon, err := sentry.New(sentry.Config{
		SampleRate: cfg.VerifySample,
		Seed:       cfg.Seed + 200 + int64(h.id),
	}, h.eng.VM.JIT)
	if err != nil {
		return err
	}
	h.mon = mon
	h.lastDiv = 0
	return nil
}

// closeMonitor drains the host's monitor, folds its counters into the
// fleet-wide totals, and shuts it down (restart, death, end of run).
func (h *host) closeMonitor(res *Result) {
	if h.mon == nil {
		return
	}
	h.mon.Drain()
	addVerify(&res.Verify, h.mon.Stats())
	h.mon.Close()
	h.mon = nil
}

// addVerify accumulates one monitor's counters into the fleet total.
func addVerify(dst *sentry.Stats, s sentry.Stats) {
	dst.ChecksumsRecorded += s.ChecksumsRecorded
	dst.AuditSweeps += s.AuditSweeps
	dst.Audited += s.Audited
	dst.Corruptions += s.Corruptions
	dst.TornLinks += s.TornLinks
	dst.StaleLinks += s.StaleLinks
	dst.DanglingLinks += s.DanglingLinks
	dst.Invalidated += s.Invalidated
	dst.Sampled += s.Sampled
	dst.ShadowRuns += s.ShadowRuns
	dst.Divergences += s.Divergences
	dst.Replays += s.Replays
	dst.Quarantined += s.Quarantined
	dst.Transient += s.Transient
}

// event appends a lifecycle letter to the host's pending event
// string (flushed into the minute's sample).
func (h *host) event(letter string) { h.pendingEvent += letter }

// sample records the host's minute.
func (h *host) sample(minute int, served, assignedRatio float64) {
	s := HostSample{
		Minute:      float64(minute + 1),
		RPSPct:      100 * served / h.steadyRPS,
		AssignedPct: 100 * assignedRatio,
		Backlog:     h.backlog,
		Up:          h.routable(),
		Event:       h.pendingEvent,
	}
	if h.eng != nil {
		st := h.eng.Stats()
		s.CodeBytes = st.BytesProfiling + st.BytesOptimized + st.BytesLive
		s.Degrade = h.eng.VM.JIT.DegradeLevel()
	}
	h.pendingEvent = ""
	h.samples = append(h.samples, s)
}
