// Package jit orchestrates the three compilation modes of the HHVM
// JIT (Section 4.1): live tracelet translations, instrumented
// profiling translations, and profile-guided optimized region
// translations published at a global retranslation trigger with
// function sorting and huge-page mapping (Section 5.1).
//
// Concurrency model (DESIGN.md §9): the translation index is
// published RCU-style through an atomic pointer, so the one index scan
// (match, behind Lookup and Match) is lock-free; all mutation —
// installing a translation, the global optimized publish — copies the
// index under a writer mutex and swaps the new map in atomically.
// Translation creation is deduplicated with a per-(func,PC)
// single-flight table, and the global retranslation can run on a
// background compiler goroutine while workers keep executing profiling
// translations.
package jit

import (
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/types"
	"repro/internal/vasm"
)

// Mode selects the execution strategy (the Figure 8 comparison).
type Mode int

const (
	// ModeInterp never JITs.
	ModeInterp Mode = iota
	// ModeTracelet is the first-generation design: live tracelets
	// only.
	ModeTracelet
	// ModeProfiling runs profiling translations forever (the JIT-
	// Profile bar in Figure 8).
	ModeProfiling
	// ModeRegion is the full second-generation design.
	ModeRegion
)

func (m Mode) String() string {
	switch m {
	case ModeInterp:
		return "interp"
	case ModeTracelet:
		return "tracelet"
	case ModeProfiling:
		return "profiling"
	default:
		return "region"
	}
}

// Config selects the execution mode, toggles the optimizations
// evaluated in Figure 10 and sizes the code cache, the retranslation
// trigger and the compile pool. The minting thresholds and the
// quarantine schedule are not configuration: no caller ever varied
// them, so they are constants beside the code that reads them
// (maxLiveChain and liveThreshold below, quarantineBase and friends in
// faults.go).
type Config struct {
	Mode Mode

	EnableInlining       bool
	EnableRCE            bool
	EnableGuardRelax     bool
	EnableMethodDispatch bool
	// PGOLayout uses profile counts for block layout / hot-cold
	// splitting; FunctionSort orders translations by the C3
	// heuristic; HugePages maps the hot area onto 2 MiB pages.
	PGOLayout    bool
	FunctionSort bool
	HugePages    bool

	// EnableShapes turns on typed object shapes in the compiler
	// (DESIGN.md §14): profiling translations record receiver shapes
	// per property site, optimized translations compile monomorphic
	// sites to GuardShape + fixed-slot access and polymorphic ones to
	// shape-guarded inline caches. Runtime shape maintenance is
	// unconditional — the toggle changes generated code only, so guest
	// outputs are bit-identical either way.
	EnableShapes bool

	// EnableChaining turns on direct translation chaining: bind jumps
	// and direct call sites are smashed with links to their resolved
	// successor translations, so steady-state transfers stay inside
	// Machine.Exec instead of round-tripping through the dispatcher
	// (Sections 2 and 5 — the smashed service requests of the paper).
	EnableChaining bool

	// BackgroundCompile runs the global retranslation on a dedicated
	// compiler goroutine (HHVM's JIT worker threads): request workers
	// keep executing profiling translations until the optimized index
	// is swapped in. Off by default so single-worker runs stay
	// deterministic (the trigger compiles inline, charged to the
	// triggering worker).
	BackgroundCompile bool

	// CompileWorkers sizes the pool of goroutines the global
	// retranslation fans its backend compiles over, each under the
	// compiled function's translation lease (lease.go); 0 and 1 both
	// mean one worker. Placement into the code cache is sequential in
	// function-sorted order whatever the count, so addresses, huge-page
	// coverage, and guest cycles do not depend on it.
	CompileWorkers int

	// FuseDispatch runs the post-regalloc fusion pass (vasm.Fuse) and
	// prepares compiled code for the machine's fast dispatch path
	// (machine.PrepareDispatch): superinstructions and per-run static-
	// cycle settlement. Guest outputs and cycle totals are bit-
	// identical with it on or off; off selects the per-instruction
	// accounting path that TestFusedDispatchBitIdentical uses as the
	// guest-cycle reference.
	FuseDispatch bool

	// CodeCacheLimit bounds total JITed bytes; 0 reads as the
	// DefaultConfig value (New fills it in).
	CodeCacheLimit uint64
	// ProfileTrigger fires global retranslation after this many
	// function-entry events; 0 reads as the DefaultConfig value.
	ProfileTrigger uint64

	// Faults, when non-nil, threads deterministic fault injection
	// through the compile pipeline, code cache, translation executor,
	// and snapshot loader (DESIGN.md §11). Nil in production.
	Faults *faultinject.Injector
}

// Minting thresholds, read by mintKindLocked.
const (
	// maxLiveChain bounds the retranslation chain at one address.
	maxLiveChain = 12
	// liveThreshold is the number of dispatcher visits to an address
	// before a live translation is made there. A bind request arrives
	// with one to its name: the translation that issued it ran.
	liveThreshold = 2
)

// Degradation ladder levels (DESIGN.md §9): when code-cache
// recycling cannot free enough space, the JIT sheds work in stages
// instead of wedging — first new live translations, then all minting,
// finally execution of JITed code itself.
const (
	// DegradeNone: normal operation.
	DegradeNone int32 = iota
	// DegradeNoLiveMint: stop minting new live translations.
	DegradeNoLiveMint
	// DegradeNoMint: stop minting translations of any kind.
	DegradeNoMint
	// DegradeInterpOnly: stop dispatching to JITed code entirely.
	DegradeInterpOnly
)

// DefaultConfig is the full region JIT with everything on. Its sizing
// values are also what New substitutes for fields left zero.
func DefaultConfig() Config {
	return Config{
		Mode:                 ModeRegion,
		EnableInlining:       true,
		EnableRCE:            true,
		EnableGuardRelax:     true,
		EnableMethodDispatch: true,
		EnableShapes:         true,
		EnableChaining:       true,
		PGOLayout:            true,
		FunctionSort:         true,
		HugePages:            true,
		FuseDispatch:         true,
		CodeCacheLimit:       64 << 20,
		ProfileTrigger:       1500,
	}
}

// Translation is one compiled region resident in the code cache.
type Translation struct {
	FuncID int
	PC     int
	Kind   Mode // which pipeline produced it
	// Preconds are the dispatcher-checked entry conditions.
	Preconds []region.Guard
	// EntryDepth is the required eval-stack depth at entry.
	EntryDepth int
	Code       *mcode.Code
	// ProfID is the profiling counter (profiling translations).
	ProfID profile.TransID
	// Desc is kept for region reuse (inlining) and diagnostics.
	Desc *region.Desc

	// uses counts successful guard matches (dispatcher, chaining and
	// OSR paths alike): the hotness signal cache recycling sorts by
	// when evicting cold translations under pressure.
	uses atomic.Uint64

	// link is the one Link{epoch, tr} shared by every smash site bound
	// to tr in the current epoch (ChainLink).
	link atomic.Pointer[mcode.Link]
}

// Uses returns the translation's successful-match count.
func (tr *Translation) Uses() uint64 { return tr.uses.Load() }

// Translation implements machine.ChainTarget: a smashed link holds a
// *Translation and the machine tail-transfers into it after recheck.

// ChainCode returns the assembled code (machine.ChainTarget).
func (tr *Translation) ChainCode() *mcode.Code { return tr.Code }

// ChainMatch rechecks entry conditions against the live frame
// (machine.ChainTarget).
func (tr *Translation) ChainMatch(fr *interp.Frame) bool { return tr.Matches(fr) }

// ChainGuards is the precondition count, charged per chained transfer
// (machine.ChainTarget).
func (tr *Translation) ChainGuards() int { return len(tr.Preconds) }

// ChainLink returns the shared link to tr stamped epoch
// (machine.ChainTarget), creating it on first use in that epoch. Racing
// creators publish equal links, and a link is never written after it
// is published, so sites may hold either.
func (tr *Translation) ChainLink(epoch uint64) *mcode.Link {
	if l := tr.link.Load(); l != nil && l.Epoch == epoch {
		return l
	}
	l := &mcode.Link{Epoch: epoch, Target: tr}
	tr.link.Store(l)
	return l
}

// Matches checks the translation's dispatcher-visible entry
// conditions (stack depth + type preconditions) against live frame
// state. Lock-free; used by the dispatcher and the chaining path.
func (tr *Translation) Matches(fr *interp.Frame) bool {
	if tr.EntryDepth != len(fr.Stack) {
		return false
	}
	src := frameTypeSource{fr}
	for _, g := range tr.Preconds {
		var t types.Type
		if g.Loc.Kind == region.LocLocal {
			t = src.LocalType(g.Loc.Slot)
		} else {
			t = src.StackType(g.Loc.Slot)
		}
		if !t.SubtypeOf(g.Type) {
			return false
		}
	}
	tr.uses.Add(1)
	return true
}

type transKey struct {
	fn int
	pc int
}

// transIndex is the RCU-published translation index: immutable once
// stored, replaced wholesale by writers.
type transIndex map[transKey][]*Translation

// Stats tracks JIT activity for the evaluation harness. All fields
// are updated atomically (workers bump them concurrently); read a
// consistent copy through JIT.Stats().
type Stats struct {
	LiveTranslations      uint64
	ProfilingTranslations uint64
	OptimizedTranslations uint64
	BytesLive             uint64
	BytesProfiling        uint64
	BytesOptimized        uint64
	GuardFails            uint64
	Entries               uint64
	OptimizeRuns          uint64
	CacheFullEvents       uint64
	// PartialPublishFuncs counts profiled functions whose optimized
	// regions could not all be compiled at the global trigger (code
	// cache full); they stay on their profiling translations.
	PartialPublishFuncs uint64

	// Execution breakdown (simulated cycles and event counts).
	MachineCycles uint64
	// MachineCycles split by the kind of translation entered: live
	// tracelets, profiling translations, optimized regions. The
	// live/optimized split is the paper's "time in live translations"
	// steady-state metric.
	MachineCyclesLive      uint64
	MachineCyclesProfiling uint64
	MachineCyclesOptimized uint64
	InterpCycles           uint64
	MachineEnters          uint64
	SideExits              uint64
	BindRequests           uint64
	InterpRuns             uint64

	// Lookups counts dispatcher Lookup calls — the number chaining is
	// meant to drive down (steady state: one per request, not one per
	// block transfer).
	Lookups uint64

	// Direct-chaining activity (mirrors machine.ChainStats).
	BindsSmashed    uint64
	ChainedJumps    uint64
	ChainedCalls    uint64
	StaleLinks      uint64
	ChainMismatches uint64
	LinksSwept      uint64

	// Typed-object-shape activity (mirrors machine.ShapeStats).
	ShapeGuards      uint64
	ShapeGuardFails  uint64
	PropICHits       uint64
	PropICMisses     uint64
	PropICMega       uint64
	PropICStale      uint64
	GenericPropCalls uint64

	// Fault containment and self-healing (DESIGN.md §11).
	// TransFaults counts contained translation faults (panic or
	// internal error converted to an interpreter re-execution).
	TransFaults uint64
	// CompileFailures counts failed compile attempts (injected or
	// genuine); each quarantines its (func, PC) with backoff.
	CompileFailures uint64
	// QuarantineRetries counts mint attempts at a previously
	// quarantined address whose backoff expired.
	QuarantineRetries uint64
	// QuarantineRecoveries counts addresses that compiled successfully
	// after one or more quarantined failures.
	QuarantineRecoveries uint64
	// Demotions counts addresses demoted to interp-only for good
	// (fault threshold or retry budget exhausted).
	Demotions uint64
	// Unpublished counts translations removed from the index by fault
	// demotion or cache recycling.
	Unpublished uint64
	// RecycleRuns / Evictions / EvictedBytes describe code-cache
	// recycling episodes.
	RecycleRuns  uint64
	Evictions    uint64
	EvictedBytes uint64

	// Quarantined is a gauge: addresses currently under quarantine
	// (including permanent demotions).
	Quarantined uint64
	// DegradeLevel is the current degradation-ladder level gauge.
	DegradeLevel uint64

	// Compile-parallelism counters. LeaseAcquires counts per-function lease acquisitions,
	// LeaseWaits those that blocked on a held lease, and LeaseSteals
	// optimizer (writer) acquisitions that took priority over queued
	// minting workers.
	LeaseAcquires uint64
	LeaseWaits    uint64
	LeaseSteals   uint64
	// PeakCompileParallelism is the high-water mark of concurrently
	// running backend compiles.
	PeakCompileParallelism uint64
	// FusedInstrs counts instructions eliminated by dispatch fusion.
	FusedInstrs uint64
}

// JIT owns the translation cache and compilation pipelines. One JIT
// is shared by every worker VM executing the unit; per-worker state
// (interpreter env, heap, meter, machine) lives in the workers.
type JIT struct {
	Cfg      Config
	Env      *interp.Env
	Unit     *hhbc.Unit
	Counters *profile.Counters
	Cache    *mcode.Cache
	// Meter is the primary worker's meter. Compiles are charged to the
	// meter of the worker that requested them; only a retranslation
	// fired from outside any worker (OptimizeAll, Jumpstart) lands here.
	Meter *machine.Meter
	// CompileMeter absorbs background-compiler cycles (a dedicated
	// core in real HHVM) so they are not charged to any worker.
	CompileMeter *machine.Meter

	// trans is the RCU-published translation index: loads are
	// lock-free, stores happen under mu on a fresh copy.
	trans atomic.Pointer[transIndex]

	// epoch is the translation-index version chain links are stamped
	// with. It advances only when translations are retired (the
	// OptimizeAll republish); links stamped with an older value are
	// stale and machines fall back to the dispatch path.
	epoch atomic.Uint64
	// Chain aggregates direct-chaining statistics across every worker
	// machine (each worker's Machine.Chain points here).
	Chain machine.ChainStats
	// Shapes aggregates shape-guard and property-IC statistics across
	// every worker machine (each worker's Machine.Shapes points here).
	Shapes machine.ShapeStats

	// mu is the writer mutex: index publication and the mutable
	// tables below.
	mu sync.Mutex
	// profBlocks collects profiling region blocks per function; each
	// block's ProfCounter is its TransID.
	profBlocks map[int][]*region.Block

	// entryCount is the per-address hotness count the live-translation
	// threshold reads (mintKindLocked).
	entryCount map[transKey]uint64
	// quarantine tracks addresses whose compiles failed or whose
	// translations faulted: retried with capped exponential backoff,
	// demoted to interp-only when the budget runs out (DESIGN.md §9).
	quarantine map[transKey]*quarantineEntry
	// inflight is the single-flight table: one minting compile per
	// (func, PC) at a time; losers wait and re-check the index.
	inflight map[transKey]chan struct{}

	// leases serializes compiles per function (lease.go).
	leases *leaseTable
	// compilesRunning / peakCompiles gauge concurrent backend
	// compiles (PeakCompileParallelism).
	compilesRunning atomic.Int64
	peakCompiles    atomic.Uint64

	// allocCheck, when set, sees every unit on both sides of register
	// allocation (SetAllocationCheck).
	allocCheck func(hu *hhir.Unit, before, after *vasm.Unit)

	// entries counts function entries (Stats.Entries): the clock of the
	// retranslation trigger and of the quarantine backoff.
	entries    atomic.Uint64
	optStarted atomic.Bool // global retranslation claimed
	optimized  atomic.Bool // optimized index published
	// cacheFull latches on genuine cache exhaustion; cleared again when
	// recycling frees space (it is a pressure valve, not a tombstone).
	cacheFull atomic.Bool
	// degrade is the current degradation-ladder level (Degrade*).
	degrade atomic.Int32

	stats Stats
}

// New wires a JIT to an environment.
func New(cfg Config, env *interp.Env, meter *machine.Meter) *JIT {
	def := DefaultConfig()
	if cfg.CodeCacheLimit == 0 {
		cfg.CodeCacheLimit = def.CodeCacheLimit
	}
	if cfg.ProfileTrigger == 0 {
		cfg.ProfileTrigger = def.ProfileTrigger
	}
	j := &JIT{
		Cfg:          cfg,
		Env:          env,
		Unit:         env.Unit,
		Counters:     profile.NewCounters(),
		Cache:        mcode.NewCache(cfg.CodeCacheLimit),
		Meter:        meter,
		CompileMeter: &machine.Meter{},
		profBlocks:   map[int][]*region.Block{},
		entryCount:   map[transKey]uint64{},
		quarantine:   map[transKey]*quarantineEntry{},
		inflight:     map[transKey]chan struct{}{},
		leases:       newLeaseTable(),
	}
	j.Cache.Faults = cfg.Faults
	empty := transIndex{}
	j.trans.Store(&empty)
	return j
}

// Stats returns a consistent copy of the counters.
func (j *JIT) Stats() Stats {
	ld := func(p *uint64) uint64 { return atomic.LoadUint64(p) }
	s := &j.stats
	out := Stats{
		LiveTranslations:      ld(&s.LiveTranslations),
		ProfilingTranslations: ld(&s.ProfilingTranslations),
		OptimizedTranslations: ld(&s.OptimizedTranslations),
		BytesLive:             ld(&s.BytesLive),
		BytesProfiling:        ld(&s.BytesProfiling),
		BytesOptimized:        ld(&s.BytesOptimized),
		GuardFails:            ld(&s.GuardFails),
		Entries:               j.entries.Load(),
		OptimizeRuns:          ld(&s.OptimizeRuns),
		CacheFullEvents:       ld(&s.CacheFullEvents),
		PartialPublishFuncs:   ld(&s.PartialPublishFuncs),

		MachineCycles:          ld(&s.MachineCycles),
		MachineCyclesLive:      ld(&s.MachineCyclesLive),
		MachineCyclesProfiling: ld(&s.MachineCyclesProfiling),
		MachineCyclesOptimized: ld(&s.MachineCyclesOptimized),
		InterpCycles:           ld(&s.InterpCycles),
		MachineEnters:          ld(&s.MachineEnters),
		SideExits:              ld(&s.SideExits),
		BindRequests:           ld(&s.BindRequests),
		InterpRuns:             ld(&s.InterpRuns),
		Lookups:                ld(&s.Lookups),

		BindsSmashed:    j.Chain.BindsSmashed.Load(),
		ChainedJumps:    j.Chain.ChainedJumps.Load(),
		ChainedCalls:    j.Chain.ChainedCalls.Load(),
		StaleLinks:      j.Chain.StaleLinks.Load(),
		ChainMismatches: j.Chain.ChainMismatches.Load(),
		LinksSwept:      j.Chain.LinksSwept.Load(),

		ShapeGuards:      j.Shapes.Guards.Load(),
		ShapeGuardFails:  j.Shapes.GuardFails.Load(),
		PropICHits:       j.Shapes.ICHits.Load(),
		PropICMisses:     j.Shapes.ICMisses.Load(),
		PropICMega:       j.Shapes.ICMega.Load(),
		PropICStale:      j.Shapes.ICStaleDropped.Load(),
		GenericPropCalls: j.Shapes.GenericPropCalls.Load(),

		TransFaults:          ld(&s.TransFaults),
		CompileFailures:      ld(&s.CompileFailures),
		QuarantineRetries:    ld(&s.QuarantineRetries),
		QuarantineRecoveries: ld(&s.QuarantineRecoveries),
		Demotions:            ld(&s.Demotions),
		Unpublished:          ld(&s.Unpublished),
		RecycleRuns:          ld(&s.RecycleRuns),
		Evictions:            ld(&s.Evictions),
		EvictedBytes:         ld(&s.EvictedBytes),
		Quarantined:          j.quarantinedCount(),
		DegradeLevel:         uint64(j.degrade.Load()),

		PeakCompileParallelism: j.peakCompiles.Load(),
		FusedInstrs:            ld(&s.FusedInstrs),
	}
	out.LeaseAcquires, out.LeaseWaits, out.LeaseSteals = j.leases.statsSnapshot()
	return out
}

// SetAllocationCheck registers fn to be handed every unit this JIT
// compiles, as it entered register allocation (a clone) and as it
// left, so the differential suites can run vasm.VerifyAllocation on
// exactly the code they execute, together with the optimized HHIR it
// was lowered from (core.TestSiteIRDigest fingerprints both). Compile
// workers call fn concurrently. Call before the engine serves requests.
func (j *JIT) SetAllocationCheck(fn func(hu *hhir.Unit, before, after *vasm.Unit)) {
	j.allocCheck = fn
}

// EpochVar exposes the link-epoch counter for worker machines
// (Machine.Epoch points here).
func (j *JIT) EpochVar() *atomic.Uint64 { return &j.epoch }

// Epoch returns the current link-epoch value.
func (j *JIT) Epoch() uint64 { return j.epoch.Load() }

// Smash binds the smash site (code, instr) — a BindJmp the machine
// just exited through — to tr, so the next transfer chains directly.
// No-ops when chaining is off or either side is unchainable
// (profiling translations bounce through the dispatcher so their
// counters and arcs keep recording).
func (j *JIT) Smash(code *mcode.Code, instr int, tr *Translation) {
	if !j.Cfg.EnableChaining || code == nil || tr == nil {
		return
	}
	if !code.Chainable || tr.Code == nil || !tr.Code.Chainable {
		return
	}
	epoch := j.epoch.Load()
	if l := code.LoadLink(instr); l != nil && l.Epoch == epoch && l.Target == tr {
		return
	}
	var link *mcode.Link
	if j.Cfg.Faults.Should(faultinject.StaleLink) && epoch > 0 {
		// Inject a link stamped with the previous epoch: followers must
		// detect it as stale and fall back to the dispatch path rather
		// than transfer through it.
		link = &mcode.Link{Epoch: epoch - 1, Target: tr}
	} else {
		link = tr.ChainLink(epoch)
	}
	code.StoreLink(instr, link)
	j.Chain.BindsSmashed.Add(1)
}

// NoteInterpRun accounts one interpreter stretch (worker hot path).
func (j *JIT) NoteInterpRun(cycles uint64) {
	atomic.AddUint64(&j.stats.InterpCycles, cycles)
	atomic.AddUint64(&j.stats.InterpRuns, 1)
}

// NoteMachineExec accounts one translation execution.
func (j *JIT) NoteMachineExec(kind Mode, cycles uint64, guardFails int) {
	atomic.AddUint64(&j.stats.MachineCycles, cycles)
	switch kind {
	case ModeTracelet:
		atomic.AddUint64(&j.stats.MachineCyclesLive, cycles)
	case ModeProfiling:
		atomic.AddUint64(&j.stats.MachineCyclesProfiling, cycles)
	case ModeRegion:
		atomic.AddUint64(&j.stats.MachineCyclesOptimized, cycles)
	}
	atomic.AddUint64(&j.stats.MachineEnters, 1)
	atomic.AddUint64(&j.stats.GuardFails, uint64(guardFails))
}

// NoteSideExit / NoteBindRequest account translation exit kinds.
func (j *JIT) NoteSideExit()    { atomic.AddUint64(&j.stats.SideExits, 1) }
func (j *JIT) NoteBindRequest() { atomic.AddUint64(&j.stats.BindRequests, 1) }

// frameTypeSource adapts a live frame to the region selector.
type frameTypeSource struct{ fr *interp.Frame }

func (s frameTypeSource) LocalType(slot int) types.Type {
	if slot < len(s.fr.Locals) {
		return s.fr.Locals[slot].Type()
	}
	return types.TUninit
}

func (s frameTypeSource) StackType(depth int) types.Type {
	if depth < len(s.fr.Stack) {
		return s.fr.Stack[depth].Type()
	}
	return types.TCell
}

// shapeSource extends any TypeSource with typed-object-shape facts
// (region.ShapeFactSource). Its presence switches the selector's
// property-access policy from exact-class specialization to bare
// object-ness — the optimized body carries a shape guard or IC for the
// layout instead — and property reads at shape-monomorphic sites flow
// their recorded slot kind into the selector, so tracelets keep
// tracing through them.
type shapeSource struct {
	region.TypeSource
	j *JIT
}

func (s shapeSource) PropReadType(fnID, pc int, name string) types.Type {
	sp := s.j.Counters.PropShapes(profile.CallSite{FuncID: fnID, PC: pc})
	if sp == nil || sp.Total < profile.ShapeWarmMin || len(sp.Shapes) != 1 {
		return types.TInitCell
	}
	sh := s.j.Env.Shapes.ByID(sp.Shapes[0].Shape)
	if sh == nil {
		return types.TInitCell
	}
	slot, ok := sh.Lookup(name)
	if !ok {
		return types.TInitCell
	}
	return types.FromKind(sh.SlotKind(slot))
}

// match is the one index scan: it walks the published chain at key
// for a translation whose entry guards fit fr, charging the
// per-candidate guard-check fee to m (nil: no fee — the OSR check asks
// for free). With chainableOnly, candidates a chained transfer may not
// enter (profiling translations) are skipped after paying their fee,
// as the in-cache guard cascade does. Lock-free: the dispatcher, the
// OSR check and the machine's chain fallback all read the
// RCU-published index through here.
func (j *JIT) match(key transKey, fr *interp.Frame, m *machine.Meter, chainableOnly bool) *Translation {
	for _, tr := range (*j.trans.Load())[key] {
		if m != nil {
			m.Charge(uint64(3 + 2*len(tr.Preconds)))
		}
		if (!chainableOnly || tr.Code.Chainable) && tr.Matches(fr) {
			return tr
		}
	}
	return nil
}

// Match returns a published translation at (fr.Fn, fr.PC) whose guards
// fit the live frame, or nil; it never mints and never touches
// quarantine state. The VM calls it for the OSR check (m nil), for a
// bound call site whose prologue translation misses, and for the chain
// fallback when a smashed link's guards miss (chainableOnly: the
// cascade through a retranslation cluster). Nil once the ladder
// reaches DegradeInterpOnly.
func (j *JIT) Match(fr *interp.Frame, m *machine.Meter, chainableOnly bool) *Translation {
	if j.degrade.Load() >= DegradeInterpOnly {
		return nil
	}
	return j.match(transKey{fr.Fn.ID, fr.PC}, fr, m, chainableOnly)
}

// Lookup finds (or creates, subject to mintKindLocked) a translation
// for (fn, fr.PC) matching the live frame types, charging dispatch and
// compile fees to the calling worker's meter m. Returns nil to stay
// in the interpreter. bound says a translation's bind request led here
// (mintKindLocked). The fast path is a lock-free read of the
// RCU-published index; the minting slow path serializes per key.
func (j *JIT) Lookup(fn *hhbc.Func, fr *interp.Frame, m *machine.Meter, bound bool) *Translation {
	if j.Cfg.Mode == ModeInterp || j.degrade.Load() >= DegradeInterpOnly {
		return nil
	}
	atomic.AddUint64(&j.stats.Lookups, 1)
	key := transKey{fn.ID, fr.PC}
	if tr := j.match(key, fr, m, false); tr != nil {
		return tr
	}
	// Nothing matches: consider translating.
	if j.mintingClosed() {
		return nil
	}
	for {
		j.mu.Lock()
		// A racing worker may have published a match meanwhile.
		if tr := j.match(key, fr, m, false); tr != nil {
			j.mu.Unlock()
			return tr
		}
		if done, busy := j.inflight[key]; busy {
			// Single-flight: another worker is minting this key. Wait
			// for its publish, then re-check; if its guard set fits,
			// share it, otherwise loop around and mint our own.
			j.mu.Unlock()
			<-done
			if tr := j.match(key, fr, m, false); tr != nil {
				return tr
			}
			continue
		}
		kind := j.mintKindLocked(key, bound)
		if kind == ModeInterp {
			j.mu.Unlock()
			return nil
		}
		if j.quarantine[key] != nil {
			// Past its backoff window: this mint is a quarantine retry.
			atomic.AddUint64(&j.stats.QuarantineRetries, 1)
		}
		done := make(chan struct{})
		j.inflight[key] = done
		j.mu.Unlock()

		tr := j.translate(fn, fr, kind, m)

		j.mu.Lock()
		delete(j.inflight, key)
		j.mu.Unlock()
		close(done)
		return tr
	}
}

// mintingClosed reports whether minting is shut JIT-wide — the cache
// is full or the ladder is at DegradeNoMint. It is the lock-free half
// of the mint policy: Lookup and WantsTranslation ask it before taking
// j.mu.
func (j *JIT) mintingClosed() bool {
	return j.cacheFull.Load() || j.degrade.Load() >= DegradeNoMint
}

// mintKindLocked is the mint policy, stated once: whether an address
// that no published translation matches gets a new one, and of which
// kind — ModeProfiling, ModeTracelet (a live translation) or ModeInterp
// (none). The dispatcher (Lookup) mints what it answers; the OSR check
// (WantsTranslation, osr set) bounces out of the interpreter only on an
// answer the dispatcher will then repeat.
//
//	none        JIT-wide: cache full, or ladder >= DegradeNoMint
//	none        address: quarantined, or chain at maxLiveChain
//	profiling   ModeProfiling; ModeRegion until retranslation is claimed
//	none        ModeRegion between the claim and the optimized publish
//	live        ModeTracelet; ModeRegion after the publish — once the
//	            address was seen liveThreshold times (a bind request's
//	            first visit is its second), ladder < DegradeNoLiveMint
//
// Profiling stops at the claim because the profile snapshot is already
// taken: a function first profiled afterwards would miss the one
// optimization round and stay on profiling code for good. Each
// consultation for a live translation is one hotness observation, so
// loops that stay in the interpreter cross the threshold. Two callers
// come one observation ahead: an OSR bounce counts the dispatcher's
// own, which follows it; a bind request (Lookup's bound) is JITed code
// asking for its continuation, hot because the code that asks is — so
// a straight line of tracelets is translated the first time it is
// walked, not one tracelet per request with the interpreter running
// each remainder. Callers hold j.mu.
func (j *JIT) mintKindLocked(key transKey, ahead bool) Mode {
	if j.mintingClosed() || j.quarantinedLocked(key) ||
		len((*j.trans.Load())[key]) >= maxLiveChain {
		return ModeInterp
	}
	switch j.Cfg.Mode {
	case ModeInterp:
		return ModeInterp
	case ModeProfiling:
		return ModeProfiling
	case ModeRegion:
		if !j.optStarted.Load() {
			return ModeProfiling
		}
		if !j.optimized.Load() {
			return ModeInterp
		}
	}
	j.entryCount[key]++
	seen := j.entryCount[key]
	if ahead {
		seen++
	}
	if seen < liveThreshold || j.degrade.Load() >= DegradeNoLiveMint {
		return ModeInterp
	}
	return ModeTracelet
}

// ForEachTranslation visits every translation in the published index
// (diagnostics and the chain-invalidation tests).
func (j *JIT) ForEachTranslation(fn func(tr *Translation)) {
	for _, chain := range *j.trans.Load() {
		for _, tr := range chain {
			fn(tr)
		}
	}
}

// WantsTranslation reports whether the OSR point should bounce to the
// dispatcher because Lookup would mint a translation there.
func (j *JIT) WantsTranslation(fn *hhbc.Func, fr *interp.Frame) bool {
	if j.Cfg.Mode == ModeInterp || j.mintingClosed() {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.mintKindLocked(transKey{fn.ID, fr.PC}, true) != ModeInterp
}

// OnEntry counts function entries and fires the global retranslation
// trigger (Section 5.1). m is the calling worker's meter: an inline
// retranslation is charged to the worker that tripped the trigger.
// With BackgroundCompile the trigger hands the work to a compiler
// goroutine (charged to CompileMeter) and returns immediately; the
// worker keeps running profiling translations until the optimized
// index is swapped in.
func (j *JIT) OnEntry(m *machine.Meter) {
	n := j.entries.Add(1)
	if j.Cfg.Mode == ModeRegion && !j.optStarted.Load() && n >= j.Cfg.ProfileTrigger {
		if j.Cfg.BackgroundCompile {
			go j.optimizeAll(j.CompileMeter) // optimizeAll claims the run via CAS
		} else {
			j.optimizeAll(m)
		}
	}
}

// Optimized reports whether the optimized index has been published.
func (j *JIT) Optimized() bool { return j.optimized.Load() }

// RecordArc notes a control transfer between two profiling
// translations (TransCFG edges).
func (j *JIT) RecordArc(from, to *Translation) {
	if from != nil && to != nil && from.Kind == ModeProfiling && to.Kind == ModeProfiling {
		j.Counters.RecordArc(from.ProfID, to.ProfID)
	}
}
