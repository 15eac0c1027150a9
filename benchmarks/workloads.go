package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/jit"
	rt "repro/internal/runtime"
)

// workloadDef names one workload; BENCHMARK.json repeats name and why.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
	// concurrent workloads race on the shared inline caches, so their
	// guest cycles repeat to about one part in 10⁵, not bit for bit.
	concurrent bool
}

var workloads = []workloadDef{
	{Name: "steady_site", Why: "warmed region JIT on one VM: machine dispatch, helpers, runtime and the vm dispatcher do all the work, the compilers none",
		run: func(r *run) error { return r.servedSite(jit.ModeRegion) }},
	{Name: "interp_site", Why: "same traffic with the JIT off: interp and runtime do all the work, so a machine-side gain predicts no change here",
		run: func(r *run) error { return r.servedSite(jit.ModeInterp) }},
	{Name: "coldstart_site", Why: "fresh compile, engine and first 10 rounds per trial: the AOT and JIT compile pipelines dominate, steady execution is negligible",
		run: (*run).coldstartSite},
	{Name: "workers_site", Why: "several worker VMs over one warmed JIT: the same machine code through the shared index, link slab and counters, so lost scaling shows",
		run: (*run).workersSite, concurrent: true},
}

// sizing fixes how much work one invocation measures. Timed phases
// replay whole blocks (or whole trials) until seconds have passed, and
// every reported number is per request or per repetition, so it does
// not depend on how many fitted.
type sizing struct {
	seconds    float64 // length of the timed phase
	setups     int     // set-ups per run; setup_s is their median
	warmRounds int     // round-robin rounds that warm a served site
	coldRounds int     // round-robin rounds in one cold-start trial
	minReps    int     // fewest blocks or trials a phase measures
}

var (
	fullSize  = sizing{seconds: 20, setups: 7, warmRounds: 40, coldRounds: 10, minReps: 10}
	quickSize = sizing{seconds: 1, setups: 2, warmRounds: 40, coldRounds: 10, minReps: 3}
)

// run is one invocation of one workload.
type run struct {
	seed   int64
	size   sizing
	traced bool

	site              *site
	tr                *tracer // nil unless traced
	workerSpans       []span  // recorded by the workers' own tracers
	m                 metrics
	attempted, failed int
}

func newRun(seed int64, size sizing, traced bool) *run {
	r := &run{seed: seed, size: size, traced: traced, m: metrics{}}
	if traced {
		r.tr = newTracer(time.Now(), 1, workerCount()+1)
	}
	return r
}

// workerCount is W: at most four request-issuing goroutines, never
// more than the processors the Go scheduler will use.
func workerCount() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// phaseLen splits the run's seconds: an untraced run spends them all
// on the one timed phase; a traced run measures share of them untraced
// (the reference) and the rest traced.
func (r *run) phaseLen(share float64) time.Duration {
	if !r.traced {
		share = 1
	}
	return time.Duration(share * r.size.seconds * float64(time.Second))
}

// count adds a client's checked requests to the run's totals.
func (r *run) count(c *client) {
	r.attempted += c.attempted
	r.failed += c.failed
	c.attempted, c.failed = 0, 0
}

// setups runs setup size.setups times, keeps the last result, and
// reports the median duration as setup_s.
func (r *run) setups(setup func() error) error {
	var secs []float64
	for i := 0; i < r.size.setups; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.m["setup_s"] = median(secs)
	return nil
}

// memMark is a reading of the Go allocator and collector counters.
type memMark struct {
	mallocs, bytes, pauseNs uint64
	numGC                   uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

// liveHeapMB forces a collection and returns what survives it while
// keep (the engine under test) is still reachable.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// reqSamples are the per-request measurements of a traced phase.
type reqSamples struct {
	hostNs [][]float64 // by endpoint
	cycles [][]float64
}

func newReqSamples(eps int) *reqSamples {
	return &reqSamples{hostNs: make([][]float64, eps), cycles: make([][]float64, eps)}
}

// tracedRequest is request under a span, with its host time and guest
// cycles sampled.
func (c *client) tracedRequest(ep int, t *tracer, parent int, samples *reqSamples) {
	id := t.begin(c.spanNames[ep], parent)
	c0, t0 := c.vm.Meter.Cycles, time.Now()
	c.request(ep)
	d := time.Since(t0)
	t.end(id)
	if samples != nil {
		samples.hostNs[ep] = append(samples.hostNs[ep], float64(d.Nanoseconds()))
		samples.cycles[ep] = append(samples.cycles[ep], float64(c.vm.Meter.Cycles-c0))
	}
}

// reps holds what a timed phase measured on one VM, one entry per
// repetition (block or trial).
type reps struct {
	hostNs   []float64
	cycles   []float64
	requests int // per repetition
}

func (p reps) totalRequests() int { return p.requests * len(p.hostNs) }

// reqHostNs is the quiet-decile host time per request.
func (p reps) reqHostNs() float64 { return quietDecile(p.hostNs) / float64(p.requests) }

// reqCycles is the guest cycles per request.
func (p reps) reqCycles() float64 { return sum(p.cycles) / float64(p.totalRequests()) }

// timeBlocks replays block on c until d has passed (and at least
// minReps times), timing each replay. With a tracer every request
// gets a span and a sample.
func timeBlocks(c *client, block []int, d time.Duration, minReps int,
	t *tracer, parent int, samples *reqSamples) reps {
	p := reps{requests: len(block)}
	start := time.Now()
	for len(p.hostNs) < minReps || time.Since(start) < d {
		c0, t0 := c.vm.Meter.Cycles, time.Now()
		if t == nil {
			c.replay(block)
		} else {
			id := t.begin("block", parent)
			for _, ep := range block {
				c.tracedRequest(ep, t, id, samples)
			}
			t.end(id)
		}
		p.hostNs = append(p.hostNs, float64(time.Since(t0).Nanoseconds()))
		p.cycles = append(p.cycles, float64(c.vm.Meter.Cycles-c0))
	}
	return p
}

// served is a warmed site ready for a timed phase.
type served struct {
	eng       *core.Engine
	c         *client
	block     []int
	unitBytes int
}

// warmSite builds the inputs, checks the golden file against the
// interpreter, compiles the site, creates the engine and warms it:
// round-robin rounds through the whole JIT lifecycle, then the block
// itself twice so links and inline caches settle on its order.
func (r *run) warmSite(mode jit.Mode) (*served, error) {
	s, err := newSite()
	if err != nil {
		return nil, err
	}
	r.site = s
	rng := rand.New(rand.NewSource(r.seed))
	unit, err := core.Compile(s.src, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	if err := s.checkGolden(unit); err != nil {
		return nil, err
	}
	cfg := jit.DefaultConfig()
	cfg.Mode = mode
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		return nil, err
	}
	sv := &served{eng: eng, c: newClient(s, eng.VM), block: s.block(rng), unitBytes: len(hhbc.EncodeUnit(unit))}
	sv.c.roundRobin(r.size.warmRounds)
	sv.c.replay(sv.block)
	sv.c.replay(sv.block)
	if mode == jit.ModeRegion && !eng.VM.JIT.Optimized() {
		return nil, fmt.Errorf("warm-up of %d rounds did not reach the optimized publish", r.size.warmRounds)
	}
	if sv.c.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed or printed the wrong output", sv.c.failed, sv.c.attempted)
	}
	sv.c.attempted = 0
	return sv, nil
}

// endToEnd stores the user-visible metrics of an untraced phase on eng.
func (r *run) endToEnd(hostNs, rps, cycles float64, requests int, m0, m1 memMark, eng *core.Engine, unitBytes int) {
	n := float64(requests)
	r.m["req_host_ns"] = hostNs
	r.m["rps"] = rps
	r.m["req_guest_cycles"] = cycles
	r.m["req_allocs"] = float64(m1.mallocs-m0.mallocs) / n
	r.m["req_alloc_bytes"] = float64(m1.bytes-m0.bytes) / n
	// Resident generated code: the deployable bytecode unit plus
	// whatever the JIT holds, so the metric is defined (and not 0)
	// with the JIT off.
	st := eng.Stats()
	r.m["code_bytes"] = float64(unitBytes) + float64(st.BytesOptimized+st.BytesLive)
	r.m["heap_live_mb"] = liveHeapMB(eng)
}

// servedSite is steady_site and interp_site: one warmed VM replaying
// the block in a closed loop.
func (r *run) servedSite(mode jit.Mode) error {
	var sv *served
	err := r.setups(func() (err error) { sv, err = r.warmSite(mode); return err })
	if err != nil {
		return err
	}
	runtime.GC()
	m0 := readMem()
	p := timeBlocks(sv.c, sv.block, r.phaseLen(0.5), r.size.minReps, nil, 0, nil)
	m1 := readMem()
	r.count(sv.c)
	r.endToEnd(p.reqHostNs(), 1e9/p.reqHostNs(), p.reqCycles(), p.totalRequests(), m0, m1, sv.eng, sv.unitBytes)
	if !r.traced {
		return nil
	}

	samples := newReqSamples(len(r.site.eps))
	x0 := readExec(sv.eng.VM.JIT, sv.c)
	var tp reps
	prof, err := cpuProfiled(func() {
		root := r.tr.begin("phase", 0)
		tp = timeBlocks(sv.c, sv.block, r.phaseLen(0.5), r.size.minReps, r.tr, root, samples)
		r.tr.end(root)
	})
	if err != nil {
		return err
	}
	x1 := readExec(sv.eng.VM.JIT, sv.c)
	r.count(sv.c)
	r.execLayers(x0, x1, tp.totalRequests(), samples)
	r.m["trace.overhead_share"] = tp.reqHostNs()/p.reqHostNs() - 1
	if err := r.reportHostShares(prof); err != nil {
		return err
	}
	for i, ep := range r.site.eps {
		r.m["endpoint."+ep.Name+".guest_cycles"] = median(samples.cycles[i])
		r.m["endpoint."+ep.Name+".host_ns"] = median(samples.hostNs[i])
	}
	return r.compilerLayers(mode)
}

// cpuProfiled runs fn under a runtime/pprof CPU profile and returns
// the profile.
func cpuProfiled(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// reportHostShares folds a CPU profile into the hostshare.* metrics.
func (r *run) reportHostShares(prof []byte) error {
	shares, err := hostShares(prof)
	if err != nil {
		return err
	}
	for _, pkg := range hostSharePkgs {
		r.m["hostshare."+pkg] = shares[pkg]
	}
	return nil
}

// compilerLayers times the ahead-of-time stages on the site source
// and, for a JIT workload, replays the JIT pipeline stage by stage.
func (r *run) compilerLayers(mode jit.Mode) error {
	root := r.tr.begin("compilers", 0)
	defer r.tr.end(root)
	var runs []aotTimes
	var unit *hhbc.Unit
	for i := 0; i < 5; i++ {
		id := r.tr.begin("aot", root)
		u, a, err := compileStaged(r.site.src, r.tr, id)
		r.tr.end(id)
		if err != nil {
			return err
		}
		unit, runs = u, append(runs, a)
	}
	reportAOT(r.m, runs, unit)
	if mode != jit.ModeRegion {
		return nil
	}
	return replayPipeline(r.site, unit, r.tr, root, r.m)
}

// execMark is a reading of every exported execution counter.
type execMark struct {
	jit  jit.Stats
	heap rt.Stats
	mem  memMark
}

// readExec reads the shared JIT counters, the guest heaps of the given
// clients' VMs (summed), and the Go memory counters.
func readExec(j *jit.JIT, clients ...*client) execMark {
	x := execMark{jit: j.Stats(), mem: readMem()}
	for _, c := range clients {
		h := c.vm.Heap.Snapshot()
		x.heap.IncRefs += h.IncRefs
		x.heap.DecRefs += h.DecRefs
		x.heap.CowCopies += h.CowCopies
		x.heap.Frees += h.Frees
		x.heap.LiveObjs += h.LiveObjs
	}
	return x
}

// execLayers turns counter deltas over a traced phase into per-layer
// metrics, per request.
func (r *run) execLayers(a, b execMark, requests int, samples *reqSamples) {
	n := float64(requests)
	per := func(name string, x, y uint64) { r.m[name] = float64(y-x) / n }
	per("jit.lookups_per_req", a.jit.Lookups, b.jit.Lookups)
	per("jit.stale_links_per_req", a.jit.StaleLinks, b.jit.StaleLinks)
	per("jit.chain_mismatches_per_req", a.jit.ChainMismatches, b.jit.ChainMismatches)
	per("machine.enters_per_req", a.jit.MachineEnters, b.jit.MachineEnters)
	per("machine.chained_jumps_per_req", a.jit.ChainedJumps, b.jit.ChainedJumps)
	per("machine.chained_calls_per_req", a.jit.ChainedCalls, b.jit.ChainedCalls)
	per("machine.side_exits_per_req", a.jit.SideExits, b.jit.SideExits)
	per("machine.bind_requests_per_req", a.jit.BindRequests, b.jit.BindRequests)
	per("machine.guard_fails_per_req", a.jit.GuardFails, b.jit.GuardFails)
	per("interp.runs_per_req", a.jit.InterpRuns, b.jit.InterpRuns)
	per("shapes.guard_fails_per_req", a.jit.ShapeGuardFails, b.jit.ShapeGuardFails)
	per("shapes.propic_hits_per_req", a.jit.PropICHits, b.jit.PropICHits)
	per("shapes.propic_misses_per_req", a.jit.PropICMisses, b.jit.PropICMisses)
	per("shapes.generic_prop_calls_per_req", a.jit.GenericPropCalls, b.jit.GenericPropCalls)
	per("runtime.increfs_per_req", a.heap.IncRefs, b.heap.IncRefs)
	per("runtime.decrefs_per_req", a.heap.DecRefs, b.heap.DecRefs)
	per("runtime.cow_copies_per_req", a.heap.CowCopies, b.heap.CowCopies)
	per("runtime.frees_per_req", a.heap.Frees, b.heap.Frees)
	r.m["runtime.live_objs_delta"] = float64(b.heap.LiveObjs - a.heap.LiveObjs)

	machineCycles := float64(b.jit.MachineCycles - a.jit.MachineCycles)
	interpCycles := float64(b.jit.InterpCycles - a.jit.InterpCycles)
	if total := machineCycles + interpCycles; total > 0 {
		r.m["machine.cycles_share"] = machineCycles / total
		r.m["interp.cycles_share"] = interpCycles / total
	}
	if machineCycles > 0 {
		r.m["machine.cycles_optimized_share"] = float64(b.jit.MachineCyclesOptimized-a.jit.MachineCyclesOptimized) / machineCycles
	}

	r.m["vm.gc_cycles"] = float64(b.mem.numGC - a.mem.numGC)
	r.m["vm.gc_pause_ms"] = float64(b.mem.pauseNs-a.mem.pauseNs) / 1e6
	var host, cycles []float64
	for ep := range samples.hostNs {
		host = append(host, samples.hostNs[ep]...)
		cycles = append(cycles, samples.cycles[ep]...)
	}
	r.m["vm.req_host_ns_p50"] = median(host)
	r.m["vm.req_host_ns_p99"] = quantile(host, 0.99)
	r.m["vm.req_samples"] = float64(len(host))
	r.m["vm.req_guest_cycles"] = sum(cycles) / float64(len(cycles))
}

// trial is one cold start: compile the site, create an engine, serve
// the first rounds through interpreter, profiling translations, the
// global trigger and the optimized publish.
type trial struct {
	eng      *core.Engine
	requests int
	aot      aotTimes      // traced trials only
	optimize time.Duration // traced trials only
}

func (r *run) coldTrial() (*trial, error) {
	unit, err := core.Compile(r.site.src, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
	if err != nil {
		return nil, err
	}
	c := newClient(r.site, eng.VM)
	c.roundRobin(r.size.coldRounds)
	r.count(c)
	return &trial{eng: eng, requests: r.size.coldRounds * len(r.site.eps)}, nil
}

// tracedColdTrial is coldTrial with a span per step. So that the
// global retranslation can be a span of its own, the engine's trigger
// is held out of reach and OptimizeAll is called here, after the
// request that crosses the default trigger.
func (r *run) tracedColdTrial(parent int) (*trial, error) {
	t := r.tr
	unit, aot, err := compileStaged(r.site.src, t, parent)
	if err != nil {
		return nil, err
	}
	var eng *core.Engine
	timed(t, "engine", parent, func() { eng, err = core.NewEngine(unit, heldConfig(), io.Discard) })
	if err != nil {
		return nil, err
	}
	c := newClient(r.site, eng.VM)
	tl := &trial{eng: eng, requests: r.size.coldRounds * len(r.site.eps), aot: aot}
	trigger := jit.DefaultConfig().ProfileTrigger
	for round := 0; round < r.size.coldRounds; round++ {
		id := t.begin("round", parent)
		for ep := range r.site.eps {
			c.tracedRequest(ep, t, id, nil)
			if tl.optimize == 0 && eng.Stats().Entries >= trigger {
				tl.optimize = timed(t, "jit.OptimizeAll", id, eng.VM.JIT.OptimizeAll)
			}
		}
		t.end(id)
	}
	r.count(c)
	return tl, nil
}

// coldstartSite times whole cold starts, one fresh engine per trial.
func (r *run) coldstartSite() error {
	var unitBytes int
	err := r.setups(func() error {
		s, err := newSite()
		if err != nil {
			return err
		}
		r.site = s
		unit, err := core.Compile(s.src, core.CompileOptions{})
		if err != nil {
			return err
		}
		if err := s.checkGolden(unit); err != nil {
			return err
		}
		unitBytes = len(hhbc.EncodeUnit(unit))
		// One unmeasured trial, so the Go heap has grown to its working
		// size before the first timed one.
		_, err = r.coldTrial()
		return err
	})
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up trial: %d of %d requests failed or printed the wrong output", r.failed, r.attempted)
	}
	r.attempted = 0

	runtime.GC()
	var p reps
	var last *trial
	m0 := readMem()
	for start := time.Now(); len(p.hostNs) < r.size.minReps || time.Since(start) < r.phaseLen(0.5); {
		t0 := time.Now()
		tl, err := r.coldTrial()
		if err != nil {
			return err
		}
		p.hostNs = append(p.hostNs, float64(time.Since(t0).Nanoseconds()))
		p.cycles = append(p.cycles, float64(tl.eng.Cycles()))
		p.requests, last = tl.requests, tl
	}
	m1 := readMem()
	r.endToEnd(p.reqHostNs(), 1e9/p.reqHostNs(), p.reqCycles(), p.totalRequests(), m0, m1, last.eng, unitBytes)
	if !r.traced {
		return nil
	}
	trials := float64(len(p.hostNs))
	r.m["vm.coldstart_host_ms"] = quietDecile(p.hostNs) / 1e6
	r.m["vm.coldstart_guest_cycles"] = sum(p.cycles) / trials
	r.m["vm.coldstart_allocs"] = float64(m1.mallocs-m0.mallocs) / trials

	var tp reps
	var self []float64
	var aots []aotTimes
	for start := time.Now(); len(tp.hostNs) < r.size.minReps || time.Since(start) < r.phaseLen(0.4); {
		id := r.tr.begin("trial", 0)
		tl, err := r.tracedColdTrial(id)
		r.tr.end(id)
		if err != nil {
			return err
		}
		d := r.tr.dur(id)
		tp.hostNs = append(tp.hostNs, float64(d.Nanoseconds()))
		self = append(self, ms(d-tl.aot.wall()-tl.optimize))
		aots = append(aots, tl.aot)
		tp.requests = tl.requests
	}
	r.m["vm.coldstart_self_ms"] = median(self)
	r.m["trace.overhead_share"] = tp.reqHostNs()/p.reqHostNs() - 1
	unit, err := core.Compile(r.site.src, core.CompileOptions{})
	if err != nil {
		return err
	}
	reportAOT(r.m, aots, unit)
	return replayPipeline(r.site, unit, r.tr, 0, r.m)
}

// workersSite is W worker VMs over one JIT warmed single-threaded,
// each replaying its own permutation of the block with no barriers.
func (r *run) workersSite() error {
	w := workerCount()
	var sv *served
	var clients []*client
	var blocks [][]int
	err := r.setups(func() error {
		var err error
		if sv, err = r.warmSite(jit.ModeRegion); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(r.seed + 1))
		clients, blocks = nil, nil
		for i := 0; i < w; i++ {
			c := newClient(r.site, sv.eng.NewWorker(io.Discard))
			b := r.site.block(rng)
			c.replay(b)
			if c.failed > 0 {
				return fmt.Errorf("worker warm-up: %d of %d requests failed or printed the wrong output", c.failed, c.attempted)
			}
			c.attempted = 0
			clients, blocks = append(clients, c), append(blocks, b)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// together times every client in parallel for d and returns each
	// worker's repetitions.
	together := func(cs []*client, d time.Duration, tracers []*tracer, parent int, samples []*reqSamples) []reps {
		out := make([]reps, len(cs))
		var wg sync.WaitGroup
		for i := range cs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var t *tracer
				var s *reqSamples
				if tracers != nil {
					t, s = tracers[i], samples[i]
				}
				out[i] = timeBlocks(cs[i], blocks[i], d, r.size.minReps, t, parent, s)
			}(i)
		}
		wg.Wait()
		return out
	}
	// Aggregate rate: each worker's quiet-decile rate, summed. Service
	// time and guest cycles: the workers' per-request figures, averaged
	// (workers fit different numbers of blocks into a phase and their
	// permutations cost different cycles; averaging per worker first
	// keeps that split out of the metric).
	rate := func(ps []reps) (rps, hostNs, cycles float64, requests int) {
		n := float64(len(ps))
		for _, p := range ps {
			rps += 1e9 / p.reqHostNs()
			hostNs += p.reqHostNs() / n
			cycles += p.reqCycles() / n
			requests += p.totalRequests()
		}
		return rps, hostNs, cycles, requests
	}

	var single float64
	if r.traced {
		single, _, _, _ = rate(together(clients[:1], r.phaseLen(0.2), nil, 0, nil))
		r.count(clients[0])
	}
	runtime.GC()
	m0 := readMem()
	ps := together(clients, r.phaseLen(0.4), nil, 0, nil)
	m1 := readMem()
	for _, c := range clients {
		r.count(c)
	}
	rps, hostNs, cycles, requests := rate(ps)
	r.endToEnd(hostNs, rps, cycles, requests, m0, m1, sv.eng, sv.unitBytes)
	runtime.KeepAlive(clients) // the workers' guest heaps count as live
	if !r.traced {
		return nil
	}
	r.m["vm.worker_scaling"] = rps / (float64(w) * single)

	root := r.tr.begin("phase", 0)
	var tracers []*tracer
	var samples []*reqSamples
	for i := range clients {
		tracers = append(tracers, newTracer(r.tr.t0, 2+i, r.tr.stride))
		samples = append(samples, newReqSamples(len(r.site.eps)))
	}
	x0 := readExec(sv.eng.VM.JIT, clients...)
	var tps []reps
	prof, err := cpuProfiled(func() { tps = together(clients, r.phaseLen(0.4), tracers, root, samples) })
	if err != nil {
		return err
	}
	x1 := readExec(sv.eng.VM.JIT, clients...)
	r.tr.end(root)
	for _, c := range clients {
		r.count(c)
	}
	all := newReqSamples(len(r.site.eps))
	for i, s := range samples {
		r.workerSpans = append(r.workerSpans, tracers[i].spans...)
		for ep := range s.hostNs {
			all.hostNs[ep] = append(all.hostNs[ep], s.hostNs[ep]...)
			all.cycles[ep] = append(all.cycles[ep], s.cycles[ep]...)
		}
	}
	_, tracedNs, _, tracedRequests := rate(tps)
	r.execLayers(x0, x1, tracedRequests, all)
	r.m["trace.overhead_share"] = tracedNs/hostNs - 1
	if err := r.reportHostShares(prof); err != nil {
		return err
	}
	return r.compilerLayers(jit.ModeRegion)
}
