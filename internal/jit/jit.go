// Package jit orchestrates the three compilation modes of the HHVM
// JIT (Section 4.1): live tracelet translations, instrumented
// profiling translations, and profile-guided optimized region
// translations published at a global retranslation trigger with
// function sorting and huge-page mapping (Section 5.1).
//
// Concurrency model (DESIGN.md §9): the translation index is
// published RCU-style through atomic pointers, so the one index scan
// (match, behind Lookup and Match) is lock-free; all mutation happens
// under a writer mutex — installing a translation copies its function's
// slot and stores it back, the global optimized publish builds a new
// index and swaps it in atomically.
// Every compile holds the one write lease, as HHVM emits code under its
// global write lease, and the global retranslation can run on a
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
	"repro/internal/runtime"
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
// evaluated in Figure 10 and sizes the code cache and the retranslation
// trigger. The minting thresholds and the quarantine schedule are not
// configuration: no caller ever varied them, so they are constants
// beside the code that reads them (maxLiveChain and liveThreshold
// below, quarantineBase and friends in faults.go). Neither is fusion:
// every translation is fused (vasm.Fuse) and prepared for the
// machine's one dispatch loop (machine.PrepareDispatch).
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

	// BackgroundCompile runs the global retranslation on a dedicated
	// compiler goroutine (HHVM's JIT worker threads): request workers
	// keep executing profiling translations until the optimized index
	// is swapped in. Off by default so single-worker runs stay
	// deterministic (the trigger compiles inline, charged to the
	// triggering worker).
	BackgroundCompile bool

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

// DefaultConfig is the full region JIT with everything on. Its sizing
// values are also what New substitutes for fields left zero.
func DefaultConfig() Config {
	return Config{
		Mode:                 ModeRegion,
		EnableInlining:       true,
		EnableRCE:            true,
		EnableGuardRelax:     true,
		EnableMethodDispatch: true,
		PGOLayout:            true,
		FunctionSort:         true,
		HugePages:            true,
		CodeCacheLimit:       64 << 20,
		ProfileTrigger:       1500,
	}
}

// Translation is one compiled region resident in the code cache.
type Translation struct {
	FuncID int
	PC     int
	Kind   Mode // which pipeline produced it
	// Preconds are the dispatcher-checked entry conditions; Code.Checks[i]
	// is Preconds[i]'s compiled test.
	Preconds []region.Guard
	// EntryDepth is the required eval-stack depth at entry.
	EntryDepth int
	// Code is the translation's assembled code, allocated with it: the
	// compile assembles into it (mcode.AssembleInto).
	Code mcode.Code
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
	// chain is the retranslation chain at tr's address as installing tr
	// published it, ending in tr (transIndex.install); never written
	// again.
	chain []*Translation
}

// Uses returns the translation's successful-match count.
func (tr *Translation) Uses() uint64 { return tr.uses.Load() }

// Translation implements machine.ChainTarget: a smashed link holds a
// *Translation and the machine tail-transfers into it after recheck.

// ChainCode returns the assembled code (machine.ChainTarget).
func (tr *Translation) ChainCode() *mcode.Code { return &tr.Code }

// ChainMatch rechecks entry conditions against the live frame
// (machine.ChainTarget), all but the preconditions that from's end
// state proves: a bind jump of from's left the frame so typed, so a
// chained transfer enters past those guards.
func (tr *Translation) ChainMatch(fr *interp.Frame, from *mcode.Code) (guards int, ok bool) {
	ok = tr.EntryDepth == len(fr.Stack)
	checks := tr.Code.Checks
	for i, g := range tr.Preconds {
		if from != nil && proves(from, g) {
			if proofAudit.on.Load() {
				proofAudit.checked.Add(1)
				if !checks[i].Holds(guarded(fr, g.Loc)) {
					proofAudit.failed.Add(1)
				}
			}
			continue
		}
		guards++
		ok = ok && checks[i].Holds(guarded(fr, g.Loc))
	}
	if ok {
		tr.uses.Add(1)
	}
	return guards, ok
}

// guarded is the frame value a guard at loc tests: a local past the
// frame reads Uninit, a stack slot past it the zero Value, which no
// check holds.
func guarded(fr *interp.Frame, loc region.Loc) runtime.Value {
	if loc.Kind == region.LocLocal {
		if loc.Slot < len(fr.Locals) {
			return fr.Locals[loc.Slot]
		}
		return runtime.Uninit()
	}
	if loc.Slot < len(fr.Stack) {
		return fr.Stack[loc.Slot]
	}
	return runtime.Value{}
}

// proofAudit is for tests: while on, ChainMatch also checks every guard
// a source's end state proves, counting the checks and the failures —
// each failure a chained transfer that entered past a guard the live
// frame does not meet.
var proofAudit struct {
	on              atomic.Bool
	checked, failed atomic.Uint64
}

// proves reports whether code's end state establishes g. A stack slot
// past the end state's depth proves nothing; a depth that differs from
// the target's fails ChainMatch's own check.
func proves(code *mcode.Code, g region.Guard) bool {
	var t types.Type
	switch {
	case g.Loc.Kind == region.LocLocal && g.Loc.Slot < len(code.EndLocals):
		t = code.EndLocals[g.Loc.Slot]
	case g.Loc.Kind == region.LocStack && g.Loc.Slot < len(code.EndStack):
		t = code.EndStack[g.Loc.Slot]
	}
	return !t.IsBottom() && t.SubtypeOf(g.Type)
}

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

// Matches checks the translation's entry conditions (stack depth +
// type preconditions) against live frame state, proving none of them
// from a source. Lock-free; used by the dispatcher, the OSR check and
// a bound call site's prologue recheck.
func (tr *Translation) Matches(fr *interp.Frame) bool {
	_, ok := tr.ChainMatch(fr, nil)
	return ok
}

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
	// InlineExits counts exits out of inlined code: each materialized
	// the inlined callees' frames (Section 5.3.1).
	InlineExits uint64
	InterpRuns  uint64

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
	// lock-free, stores happen under mu (transIndex).
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

	// lease is the write lease: every compile — a mint from compile
	// through install, the global retranslation from its profile
	// snapshot to its publish — holds it. Lock order is lease -> mu;
	// nothing takes the lease while holding mu.
	lease sync.Mutex
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
	}
	j.Cache.Faults = cfg.Faults
	j.trans.Store(newTransIndex(env.Unit.Funcs))
	return j
}

// Stats returns a consistent copy of the counters.
func (j *JIT) Stats() Stats {
	ld := func(p *uint64) uint64 { return atomic.LoadUint64(p) }
	s := &j.stats
	return Stats{
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
		InlineExits:            ld(&s.InlineExits),
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
		FusedInstrs:          ld(&s.FusedInstrs),
	}
}

// SetAllocationCheck registers fn to be handed every unit this JIT
// compiles, as it entered register allocation (a clone) and as it
// left, so the differential suites can run vasm.VerifyAllocation on
// exactly the code they execute, together with the optimized HHIR it
// was lowered from (perflab.TestBaseline fingerprints both). Compiles
// call fn under the write lease, one at a time. Call before the engine
// serves requests.
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
// No-ops when either side is unchainable (profiling translations
// bounce through the dispatcher so their counters and arcs keep
// recording).
func (j *JIT) Smash(code *mcode.Code, instr int, tr *Translation) {
	if code == nil || tr == nil || !code.Chainable || !tr.Code.Chainable {
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

// NoteInlineExit accounts an exit that materialized inlined frames.
func (j *JIT) NoteInlineExit() { atomic.AddUint64(&j.stats.InlineExits, 1) }

// frameTypeSource adapts a live frame to the region selector. With
// static set it tells a static string apart (TStaticStr), the way
// HHVM's live translations guard a persistent string's DataType, so a
// literal carried across a tracelet boundary is not counted on the
// other side. Only live tracelets are selected so: profiling
// translations, whose guards the optimized regions inherit, are not.
type frameTypeSource struct {
	fr     *interp.Frame
	static bool
}

func (s frameTypeSource) LocalType(slot int) types.Type {
	if slot < len(s.fr.Locals) {
		return s.typeOf(s.fr.Locals[slot])
	}
	return types.TUninit
}

func (s frameTypeSource) StackType(depth int) types.Type {
	if depth < len(s.fr.Stack) {
		return s.typeOf(s.fr.Stack[depth])
	}
	return types.TCell
}

func (s frameTypeSource) typeOf(v runtime.Value) types.Type {
	if s.static && v.Kind == types.KStr && v.AsStr().Static() {
		return types.TStaticStr
	}
	return v.Type()
}

// entryTypes is the entry-type half of region.TypeSource: a live frame
// (frameTypeSource), an inlined callee's argument types (argTypeSource)
// or a snapshot's recorded guards (snapTypeSource).
type entryTypes interface {
	LocalType(slot int) types.Type
	StackType(depth int) types.Type
}

// shapeSource completes entry types with the JIT's typed-object-shape
// facts (DESIGN.md §14) into the region.TypeSource every selection
// goes through: property reads at shape-monomorphic sites flow their
// recorded slot kind into the selector, so tracelets keep tracing
// through them. A selection takes one from shapeSources, fills the
// field its entry types come from and hands both to selectBlock: a
// pointer goes into an interface without an allocation, so neither
// the source nor its entry types are boxed.
type shapeSource struct {
	entryTypes // points at frame, args or snap
	j          *JIT

	frame frameTypeSource
	args  argTypeSource
	snap  snapTypeSource
}

var shapeSources = sync.Pool{New: func() any { return new(shapeSource) }}

// selectBlock selects the block at (fn, pc) with entry types from
// entry, a field of src, and hands src back to shapeSources emptied.
func (j *JIT) selectBlock(src *shapeSource, entry entryTypes, fn *hhbc.Func, pc, depth int, mode region.SelectMode) *region.Block {
	src.entryTypes, src.j = entry, j
	blk := region.Select(j.Unit, fn, pc, depth, src, mode, 0)
	*src = shapeSource{}
	shapeSources.Put(src)
	return blk
}

func (s *shapeSource) PropReadType(fnID, pc int, name string) types.Type {
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
	for _, tr := range j.trans.Load().chain(key) {
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
// cascade through a retranslation cluster).
func (j *JIT) Match(fr *interp.Frame, m *machine.Meter, chainableOnly bool) *Translation {
	return j.match(transKey{fr.Fn.ID, fr.PC}, fr, m, chainableOnly)
}

// Lookup finds (or creates, subject to mintKindLocked) a translation
// for (fn, fr.PC) matching the live frame types, charging dispatch and
// compile fees to the calling worker's meter m. Returns nil to stay
// in the interpreter. bound says a translation's bind request led here
// (mintKindLocked). The fast path is a lock-free read of the
// RCU-published index. A miss decides the kind under j.mu, so one that
// will interpret never waits for a compile; one that will mint takes
// the write lease and re-checks the index first, so workers that
// missed on the same address together share the first one's
// translation when its guards fit their frames.
func (j *JIT) Lookup(fn *hhbc.Func, fr *interp.Frame, m *machine.Meter, bound bool) *Translation {
	if j.Cfg.Mode == ModeInterp {
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
	j.mu.Lock()
	kind := j.mintKindLocked(key, bound)
	j.mu.Unlock()
	if kind == ModeInterp {
		return nil
	}
	return j.mintUnderLease(fn, fr, kind, m)
}

// mintUnderLease takes the write lease and mints a translation of the
// kind Lookup decided at (fn, fr.PC), unless whoever held the lease
// before published a match there (returned instead), or failed there
// and quarantined the address, or filled the cache or the address's
// chain, or — the global retranslation — claimed the run, whose
// profile snapshot a profiling translation would now miss
// (mintKindLocked). It re-asks the policy's refusals without counting
// another observation.
func (j *JIT) mintUnderLease(fn *hhbc.Func, fr *interp.Frame, kind Mode, m *machine.Meter) *Translation {
	key := transKey{fn.ID, fr.PC}
	j.lease.Lock()
	defer j.lease.Unlock()
	if tr := j.match(key, fr, m, false); tr != nil {
		return tr
	}
	j.mu.Lock()
	barred, retry := j.mintBarredLocked(key), j.quarantine[key] != nil
	j.mu.Unlock()
	if barred || j.Cfg.Mode == ModeRegion && kind == ModeProfiling && j.optStarted.Load() {
		return nil
	}
	if retry {
		// Past its backoff window: this mint is a quarantine retry.
		atomic.AddUint64(&j.stats.QuarantineRetries, 1)
	}
	return j.translate(fn, fr, kind, m)
}

// mintingClosed reports whether minting is shut JIT-wide: the cache is
// full. It is the lock-free half of the mint policy: Lookup and
// WantsTranslation ask it before taking j.mu.
func (j *JIT) mintingClosed() bool {
	return j.cacheFull.Load()
}

// mintKindLocked is the mint policy, stated once: whether an address
// that no published translation matches gets a new one, and of which
// kind — ModeProfiling, ModeTracelet (a live translation) or ModeInterp
// (none). The dispatcher (Lookup) mints what it answers; the OSR check
// (WantsTranslation, osr set) bounces out of the interpreter only on an
// answer the dispatcher will then repeat.
//
//	none        JIT-wide: cache full
//	none        address: quarantined, or chain at maxLiveChain
//	profiling   ModeProfiling; ModeRegion until retranslation is claimed
//	none        ModeRegion between the claim and the optimized publish
//	live        ModeTracelet; ModeRegion after the publish — once the
//	            address was seen liveThreshold times (a bind request's
//	            first visit is its second)
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
	if j.mintBarredLocked(key) {
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
	if seen < liveThreshold {
		return ModeInterp
	}
	return ModeTracelet
}

// mintBarredLocked reports whether no translation of any kind may be
// minted at key: minting is shut JIT-wide, the address is quarantined,
// or its chain already holds maxLiveChain translations. Callers hold
// j.mu.
func (j *JIT) mintBarredLocked(key transKey) bool {
	return j.mintingClosed() || j.quarantinedLocked(key) ||
		len(j.trans.Load().chain(key)) >= maxLiveChain
}

// ForEachTranslation visits every translation in the published index,
// by function and address (diagnostics and the chain-invalidation
// tests).
func (j *JIT) ForEachTranslation(fn func(tr *Translation)) {
	j.trans.Load().each(func(_ transKey, chain []*Translation) {
		for _, tr := range chain {
			fn(tr)
		}
	})
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
// index is swapped in. The run is claimed before the goroutine starts,
// so at most one ever does.
func (j *JIT) OnEntry(m *machine.Meter) {
	n := j.entries.Add(1)
	if j.Cfg.Mode != ModeRegion || j.optStarted.Load() || n < j.Cfg.ProfileTrigger ||
		!j.claimOptimize() {
		return
	}
	if j.Cfg.BackgroundCompile {
		go j.optimizeAll(j.CompileMeter)
	} else {
		j.optimizeAll(m)
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
