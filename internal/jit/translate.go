package jit

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
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

// Debug, when set, dumps every compiled region's IR to stderr.
var Debug = os.Getenv("REPRO_JIT_DEBUG") != ""

// compileBackend runs the compiler pipeline — HHIR build and
// optimization, lowering, layout, register allocation, optional
// dispatch fusion, assembly into code — without touching the code
// cache. Callers hold the write lease. It is the one caller that
// releases its HHIR and vasm units for the next compile to reuse, once
// the code has copied out what it keeps and every hook has seen them.
func (j *JIT) compileBackend(code *mcode.Code, desc *region.Desc, bcfg hhir.BuildConfig,
	passes hhir.PassConfig, lay vasm.LayoutConfig) error {

	// The injection draw is keyed by the region's entry address, not
	// the global draw counter: the n-th compile attempt of a given
	// (func, PC) fires identically whatever else compiled before it, so
	// the order the global retranslation compiles in does not change
	// which translations fail.
	entry := desc.Entry()
	if j.Cfg.Faults.ShouldAt(faultinject.CompileError,
		uint64(entry.Func.ID)<<32^uint64(uint32(entry.Start))) {
		return faultinject.Errf(faultinject.CompileError)
	}
	hu, err := hhir.Build(j.Unit, j.Env, desc, bcfg)
	if err != nil {
		return err
	}
	defer hhir.Release(hu)
	hhir.Optimize(hu, passes)
	vu, err := vasm.Lower(hu)
	if err != nil {
		return err
	}
	defer vasm.Release(vu)
	vu.Entry, vu.Classes = entry.Preconds, j.Env.Classes
	vasm.Layout(vu, lay)
	var before *vasm.Unit
	if j.allocCheck != nil {
		before = vu.Clone()
	}
	vasm.Allocate(vu)
	if before != nil {
		j.allocCheck(hu, before, vu)
	}
	if n := vasm.Fuse(vu); n > 0 {
		atomic.AddUint64(&j.stats.FusedInstrs, uint64(n))
	}
	if err := mcode.AssembleInto(code, vu); err != nil {
		return err
	}
	code.Guards, code.Loads = hu.Stats, hu.Opt
	// The unit's lists are recycled with it: the code keeps a copy.
	ends, n := slices.Concat(hu.EndLocals, hu.EndStack), len(hu.EndLocals)
	code.EndLocals, code.EndStack = ends[:n:n], ends[n:]
	if Debug && !bcfg.Profiling {
		fmt.Fprintf(os.Stderr, "=== region for %s ===\n%s\n--- HHIR ---\n%s--- vasm ---\n%s--- guards: %s ---\n--- loads: %s ---\n--- regalloc: %s; %d fallthrough jumps elided ---\n\n",
			desc.Entry().Func.FullName(), desc, hu, vu, code.Guards, code.Loads, vu.Alloc, code.ElidedJumps)
	}
	return nil
}

// placeCode allocates cache space for assembled code, rebases it,
// prepares it for dispatch, and charges the compile fee to m. Callers
// hold the write lease, so the alloc -> recycle -> alloc sequence below
// is atomic with respect to every other compile: the space a recycle
// frees is there for the retry. OptimizeAll places in function-sorted
// order, so hot-area placement is deterministic.
func (j *JIT) placeCode(code *mcode.Code, area mcode.Area, m *machine.Meter) error {
	base, err := j.Cache.Alloc(area, code.Size)
	if err != nil && errors.Is(err, mcode.ErrCacheFull) {
		// Genuine exhaustion (injected alloc failures fall through as
		// plain transient errors): latch, and on the minting paths try
		// to recycle cold code and retry the allocation once. The
		// global optimized publish (AreaHot) never recycles — it keeps
		// its partial-publish semantics, where functions that miss the
		// budget simply stay on their profiling translations.
		j.cacheFull.Store(true)
		atomic.AddUint64(&j.stats.CacheFullEvents, 1)
		if area != mcode.AreaHot && j.recycle(code.Size) {
			base, err = j.Cache.Alloc(area, code.Size)
		}
	}
	if err != nil {
		return err
	}
	code.Place(base)
	machine.PrepareDispatch(code)
	// Compilation itself consumes CPU: the warmup dip in Figure 9 is
	// partly JIT time. Charged per emitted byte.
	m.Charge(code.Size * jitCyclesPerByte)
	return nil
}

// jitCyclesPerByte approximates compilation cost per emitted byte.
const jitCyclesPerByte = 45

func (j *JIT) passConfig(profiling bool) hhir.PassConfig {
	if profiling {
		return hhir.ProfilingPasses
	}
	p := hhir.AllPasses
	p.RCE = j.Cfg.EnableRCE
	return p
}

func (j *JIT) layoutConfig() vasm.LayoutConfig {
	return vasm.LayoutConfig{ProfileGuided: j.Cfg.PGOLayout, SplitCold: true}
}

// translate selects the region at (fn, fr.PC) from the live frame's
// types — a gen-1 style tracelet for ModeTracelet, one instrumented
// block for ModeProfiling — and mints it.
func (j *JIT) translate(fn *hhbc.Func, fr *interp.Frame, kind Mode, m *machine.Meter) *Translation {
	src := shapeSources.Get().(*shapeSource)
	src.frame = frameTypeSource{fr, kind == ModeTracelet}
	if kind == ModeProfiling {
		blk := j.selectBlock(src, &src.frame, fn, fr.PC, len(fr.Stack), region.ModeProfiling)
		blk.ProfCounter = j.Counters.NewCounter()
		return j.mint(region.NewDesc(blk), kind, hhir.BuildConfig{Profiling: true,
			Counter: blk.ProfCounter, EnableShapes: true}, m)
	}
	blk := j.selectBlock(src, &src.frame, fn, fr.PC, len(fr.Stack), region.ModeLive)
	// Live translations have no call-profile-driven optimizations;
	// inline caching handles dispatch (Section 5.3.3). Shape ICs are
	// likewise self-filling, so live code gets them too, and Counters
	// are threaded so shape-monomorphic sites can take the guarded
	// fixed-slot path once a profile exists.
	return j.mint(region.NewDesc(blk), kind, hhir.BuildConfig{
		EnableShapes: true, Counters: j.Counters}, m)
}

// mint is the one mint path: it compiles desc as a translation of the
// given kind (ModeTracelet or ModeProfiling; ModeRegion only from
// PublishRegion — the global retranslation publishes its batch itself),
// places the code in the kind's cache area, installs the translation
// into the index and accounts it, charging the compile to m. A compile
// failure quarantines the address — except cache exhaustion, which is
// global pressure, not this address's fault — and returns nil. Callers
// hold the write lease across all of it.
func (j *JIT) mint(desc *region.Desc, kind Mode, bcfg hhir.BuildConfig, m *machine.Meter) *Translation {
	entry := desc.Entry()
	key := transKey{entry.Func.ID, entry.Start}
	area, _, _ := j.residence(kind)
	tr := newTranslation(desc, kind)
	err := j.compileBackend(&tr.Code, desc, bcfg, j.passConfig(bcfg.Profiling),
		vasm.LayoutConfig{ProfileGuided: false, SplitCold: true})
	if err == nil {
		err = j.placeCode(&tr.Code, area, m)
	}
	if err != nil {
		debugCompileErr(kind.String(), entry.Func.FullName(), err)
		if !errors.Is(err, mcode.ErrCacheFull) {
			j.noteCompileFailure(key, err)
		}
		return nil
	}
	j.account(tr)
	j.mu.Lock()
	j.installLocked(tr)
	if kind == ModeProfiling {
		j.profBlocks[key.fn] = append(j.profBlocks[key.fn], entry)
	}
	j.mu.Unlock()
	j.noteMintSuccess(key)
	return tr
}

// regionBuildConfig is the HHIR build configuration of optimized
// regions. Its inliner forms a callee's profiled regions once for all
// the compiles that use the configuration — one OptimizeAll run, or
// one PublishRegion — not at every inlined call site; those compiles
// hold the write lease, so they never read the memo concurrently.
func (j *JIT) regionBuildConfig() hhir.BuildConfig {
	profiled := map[int]*region.Desc{} // callee ID -> its profiled entry region (nil: none)
	return hhir.BuildConfig{
		EnableInlining:       j.Cfg.EnableInlining,
		EnableMethodDispatch: j.Cfg.EnableMethodDispatch,
		DisableInlineCache:   !j.Cfg.EnableMethodDispatch,
		EnableShapes:         true,
		Counters:             j.Counters,
		RegionOf: func(f *hhbc.Func, argTypes []types.Type) *region.Desc {
			d, ok := profiled[f.ID]
			if !ok {
				d = j.profiledRegion(f)
				profiled[f.ID] = d
			}
			if d != nil {
				return d
			}
			return j.synthesizedRegion(f, argTypes)
		},
	}
}

// PublishRegion compiles desc the way the global retranslation
// compiles the regions it forms and publishes it at its entry address;
// nil when the compile fails. Tests run hand-built regions through it.
func (j *JIT) PublishRegion(desc *region.Desc) *Translation {
	j.lease.Lock()
	defer j.lease.Unlock()
	return j.mint(desc, ModeRegion, j.regionBuildConfig(), j.Meter)
}

// residence maps a translation kind to the code-cache area its code
// lives in and to its count and resident-byte statistics.
func (j *JIT) residence(kind Mode) (area mcode.Area, count, bytes *uint64) {
	switch kind {
	case ModeTracelet:
		return mcode.AreaLive, &j.stats.LiveTranslations, &j.stats.BytesLive
	case ModeProfiling:
		return mcode.AreaProfile, &j.stats.ProfilingTranslations, &j.stats.BytesProfiling
	default:
		return mcode.AreaHot, &j.stats.OptimizedTranslations, &j.stats.BytesOptimized
	}
}

// newTranslation returns the translation of desc, its code still to be
// compiled into it (compileBackend, placeCode).
func newTranslation(desc *region.Desc, kind Mode) *Translation {
	entry := desc.Entry()
	tr := &Translation{
		FuncID: entry.Func.ID, PC: entry.Start, Kind: kind,
		Preconds: entry.Preconds, EntryDepth: entry.EntryStackDepth,
		ProfID: -1, Desc: desc,
	}
	if kind == ModeProfiling {
		tr.ProfID = entry.ProfCounter
	}
	return tr
}

// account marks tr's placed code chainable or not and counts it under
// its kind; publishing it is the caller's step (mint installs one, the
// optimized publish swaps a batch in). Live tracelets and optimized
// regions chain — gen-1's defining trick is smashing bind jumps
// together. Profiling translations deliberately do not, in either
// direction: every entry must pass through the dispatcher so RecordArc
// sees the transfer and the TransCFG stays accurate, and the optimized
// publish retires exactly this kind — keeping them out of links means
// no chainable target is ever semantically stale. Profiling code is
// also the only code that records call-graph arcs, the one profile
// counter it carries no instruction for.
func (j *JIT) account(tr *Translation) {
	tr.Code.Chainable = tr.Kind != ModeProfiling
	tr.Code.Profiling = tr.Kind == ModeProfiling
	_, count, bytes := j.residence(tr.Kind)
	atomic.AddUint64(count, 1)
	atomic.AddUint64(bytes, tr.Code.Size)
}

// installLocked publishes tr at the tail of its address's chain. The
// install allocates only that chain and stores it into its pc's entry
// of the index (transIndex.install), so a publish costs the chain that
// grows. Callers hold j.mu; concurrent lock-free readers keep the chain
// they loaded untouched.
func (j *JIT) installLocked(tr *Translation) {
	j.trans.Load().install(transKey{tr.FuncID, tr.PC}, tr)
}

// profIDs lists the TransIDs of profiling blocks, in order.
func profIDs(blocks []*region.Block) []profile.TransID {
	ids := make([]profile.TransID, len(blocks))
	for i, blk := range blocks {
		ids[i] = blk.ProfCounter
	}
	return ids
}

// OptimizeAll is the global retranslation trigger: it forms regions
// for every profiled function, compiles them with the full pipeline,
// sorts functions with the C3 heuristic, publishes the optimized code
// into the hot area (optionally huge-page mapped), and discards the
// profiling translations (points A..C in Figure 9). Exactly one run
// ever happens (claimOptimize); with BackgroundCompile it executes on
// a compiler goroutine while workers keep serving from profiling
// translations, and the optimized index becomes visible in one
// atomic swap. Functions whose regions cannot all be compiled (code
// cache full) are NOT unpublished: they keep their profiling
// translations and are counted in Stats.PartialPublishFuncs.
//
// Called directly (a benchmark or test deciding when the trigger
// fires, a jumpstart load) the compile is charged to the primary
// worker's meter, or to CompileMeter under BackgroundCompile; the
// entry-count trigger charges the worker that tripped it (OnEntry).
func (j *JIT) OptimizeAll() {
	if !j.claimOptimize() {
		return
	}
	if j.Cfg.BackgroundCompile {
		j.optimizeAll(j.CompileMeter)
	} else {
		j.optimizeAll(j.Meter)
	}
}

// claimOptimize claims the one global retranslation run.
func (j *JIT) claimOptimize() bool {
	return j.optStarted.CompareAndSwap(false, true)
}

// optimizeAll runs the claimed retranslation under the write lease,
// from the profile snapshot to the publish. Nothing waits on it:
// between the claim and the publish region mode mints nothing, and a
// profiling mint that was queued on the lease at the claim is dropped
// (Lookup).
func (j *JIT) optimizeAll(meter *machine.Meter) {
	j.lease.Lock()
	defer j.lease.Unlock()
	atomic.AddUint64(&j.stats.OptimizeRuns, 1)

	// Snapshot the profiling tables; a profiling mint that held the
	// lease at the claim has landed in them. The blocks are deep-copied:
	// guard relaxation widens Preconds in place, and the originals'
	// Precond slices are shared with live profiling translations that
	// workers are still guard-matching against.
	j.mu.Lock()
	blocksByFn := make(map[int][]*region.Block, len(j.profBlocks))
	for fnID, blocks := range j.profBlocks {
		blocksByFn[fnID] = cloneBlocks(blocks)
	}
	j.mu.Unlock()

	type funcRegions struct {
		fnID    int
		regions []*region.Desc
	}
	var all []funcRegions
	for fnID, blocks := range blocksByFn {
		g := region.BuildTransCFG(blocks, profIDs(blocks), j.Counters)
		regions := region.FormRegions(g, region.DefaultFormConfig)
		rcfg := region.DefaultRelaxConfig
		rcfg.Enabled = j.Cfg.EnableGuardRelax
		for _, d := range regions {
			if Debug {
				fmt.Fprintf(os.Stderr, "=== pre-relax region ===\n%s\n", d)
			}
			region.Relax(d, g, j.Counters, rcfg)
		}
		all = append(all, funcRegions{fnID, dropShadowed(regions)})
	}

	// Function sorting: order the publish sequence by C3 clustering
	// over the dynamic call graph (Section 5.1.1).
	profFns := make([]int, 0, len(blocksByFn))
	for id := range blocksByFn {
		profFns = append(profFns, id)
	}
	order := j.functionOrder(profFns)
	rank := map[int]int{}
	for i, fnID := range order {
		rank[fnID] = i
	}
	sort.SliceStable(all, func(a, b int) bool {
		ra, oka := rank[all[a].fnID]
		rb, okb := rank[all[b].fnID]
		if oka != okb {
			return oka
		}
		if ra != rb {
			return ra < rb
		}
		return all[a].fnID < all[b].fnID
	})

	// Profiling code is discarded up front: its cache space is reused
	// for the optimized translations (freeing `aprof`), so the code
	// budget constrains optimized + live code only. With a small
	// budget the function-sorted order means the hottest code is
	// compiled first — the property behind Figure 11's shape.
	j.Cache.Free(mcode.AreaProfile, atomic.LoadUint64(&j.stats.BytesProfiling))
	j.Cache.ResetArea(mcode.AreaProfile)

	// Compile and place in the function-sorted order. The index is not
	// touched yet: workers keep dispatching to profiling translations
	// throughout this (long) phase. A failed backend and a transiently
	// failed placement (a flaky allocation) are each retried once: the
	// global publish runs once ever, so one bad draw should not
	// permanently cost a region its optimized code.
	bcfg := j.regionBuildConfig()
	var newTrans []*Translation
	published := map[int]bool{} // fnID -> all regions compiled
	for _, fr := range all {
		ok := len(fr.regions) > 0
		for _, desc := range fr.regions {
			tr := newTranslation(desc, ModeRegion)
			err := j.compileBackend(&tr.Code, desc, bcfg, j.passConfig(false), j.layoutConfig())
			if err != nil {
				err = j.compileBackend(&tr.Code, desc, bcfg, j.passConfig(false), j.layoutConfig())
			}
			if err == nil {
				err = j.placeCode(&tr.Code, mcode.AreaHot, meter)
				if err != nil && !errors.Is(err, mcode.ErrCacheFull) {
					err = j.placeCode(&tr.Code, mcode.AreaHot, meter)
				}
			}
			if err != nil {
				debugCompileErr("optimize", desc.Entry().Func.FullName(), err)
				ok = false // cache full: this function keeps its profiling code
				continue
			}
			j.account(tr)
			newTrans = append(newTrans, tr)
		}
		published[fr.fnID] = ok
	}

	// Publish: one atomic swap installs every optimized translation
	// and retires the profiling chains of fully-published functions.
	// Partially-published functions (cache filled mid-publish) keep
	// their profiling translations so they stay JITed.
	var partial uint64
	for _, ok := range published {
		if !ok {
			partial++
		}
	}
	j.mu.Lock()
	add := newTrans[:0]
	for _, tr := range newTrans {
		if q := j.quarantine[transKey{tr.FuncID, tr.PC}]; q != nil && q.permanent {
			// The address was demoted to interp-only after repeated
			// faults; publishing an optimized region there would
			// resurrect the faulting code path. Return the extent.
			j.retireCode(tr)
			continue
		}
		add = append(add, tr)
	}
	idx := j.trans.Load().rebuild(func(tr *Translation) bool {
		return tr.Kind == ModeProfiling && published[tr.FuncID]
	}, add)
	j.trans.Store(idx)
	// Advance the link epoch: the republish retired the profiling
	// chains, so chain links resolved against the old index must stop
	// being followed. Readers that loaded a link before the bump see a
	// stale epoch and fall back to the dispatch path; targets are never
	// semantically invalid (only unchainable profiling translations
	// were retired) — the epoch guard is belt-and-braces on top of that
	// invariant.
	epoch := j.epoch.Add(1)
	j.entryCount = map[transKey]uint64{}
	j.optimized.Store(true)
	j.mu.Unlock()

	j.sweepLinks(idx, epoch)

	if partial > 0 {
		atomic.AddUint64(&j.stats.PartialPublishFuncs, partial)
		if Debug {
			fmt.Fprintf(os.Stderr,
				"JIT optimize: partial publish — %d function(s) kept on profiling translations (code cache full)\n",
				partial)
		}
	}
	if j.Cfg.HugePages {
		j.Cache.SetHugePages(j.Cache.AreaUsed(mcode.AreaHot))
	}
	j.cacheFull.Store(false)
}

// dropShadowed drops each region whose entry — pc, entry depth and
// preconditions — equals an earlier region's. Relaxation can widen two
// profiled entries to the same guards, and match always takes the
// first, so a later one would be compiled and published but never
// entered.
func dropShadowed(regions []*region.Desc) []*region.Desc {
	kept := regions[:0]
	for _, d := range regions {
		e := d.Entry()
		shadowed := slices.ContainsFunc(kept, func(k *region.Desc) bool {
			ke := k.Entry()
			return ke.Start == e.Start && ke.EntryStackDepth == e.EntryStackDepth &&
				slices.Equal(ke.Preconds, e.Preconds)
		})
		if !shadowed {
			kept = append(kept, d)
		}
	}
	return kept
}

// cloneBlocks deep-copies profiling blocks for region formation. Live
// profiling translations alias the originals' Preconds (Matches
// reads them lock-free on every dispatch), so any pass that rewrites
// guards — relaxation in particular — must work on private copies. The
// copies share one backing array per field, each block's slice a
// capacity-capped window of it. PostLocals is nil (region.Select leaves
// it so), so no copy shares anything through it.
func cloneBlocks(blocks []*region.Block) []*region.Block {
	nguards, nstack, nsuccs := 0, 0, 0
	for _, blk := range blocks {
		nguards += len(blk.Preconds)
		nstack += len(blk.EntryStackTypes)
		nsuccs += len(blk.Succs)
	}
	out := make([]*region.Block, len(blocks))
	copies := make([]region.Block, len(blocks))
	guards := make([]region.Guard, 0, nguards)
	stack := make([]types.Type, 0, nstack)
	succs := make([]int, 0, nsuccs)
	for i, blk := range blocks {
		cp := &copies[i]
		*cp = *blk
		cp.Preconds, guards = window(guards, blk.Preconds)
		cp.EntryStackTypes, stack = window(stack, blk.EntryStackTypes)
		cp.Succs, succs = window(succs, blk.Succs)
		out[i] = cp
	}
	return out
}

// window appends xs to buf and returns the copy as a capacity-capped
// window of buf (nil for an empty xs), and buf.
func window[T any](buf, xs []T) ([]T, []T) {
	if len(xs) == 0 {
		return nil, buf
	}
	from := len(buf)
	buf = append(buf, xs...)
	return buf[from:len(buf):len(buf)], buf
}

// The partial inliner takes a callee's own profiled region when there is
// one (profiledRegion), otherwise a region synthesized from the argument
// types (synthesizedRegion).

// profiledRegion forms f's regions from its profile and returns the one
// entered at f's first instruction, nil when there is none.
func (j *JIT) profiledRegion(f *hhbc.Func) *region.Desc {
	j.mu.Lock()
	blocks := cloneBlocks(j.profBlocks[f.ID])
	j.mu.Unlock()
	if len(blocks) == 0 {
		return nil
	}
	g := region.BuildTransCFG(blocks, profIDs(blocks), j.Counters)
	for _, d := range region.FormRegions(g, region.FormRegionsConfig{MaxBCInstrs: 200}) {
		if d.Entry().Start == 0 {
			return d
		}
	}
	return nil
}

// synthesizedRegion selects a static region of f from its argument
// types.
func (j *JIT) synthesizedRegion(f *hhbc.Func, argTypes []types.Type) *region.Desc {
	src := shapeSources.Get().(*shapeSource)
	src.args = argTypeSource{argTypes: argTypes, fn: f}
	return region.NewDesc(j.selectBlock(src, &src.args, f, 0, 0, region.ModeLive))
}

// argTypeSource feeds known argument types to the region selector.
type argTypeSource struct {
	argTypes []types.Type
	fn       *hhbc.Func
}

func (s argTypeSource) LocalType(slot int) types.Type {
	if slot < len(s.argTypes) {
		return s.argTypes[slot]
	}
	if slot < len(s.fn.Params) {
		p := s.fn.Params[slot]
		if p.HasDefault {
			return types.FromKind(p.DefaultKind)
		}
		return types.TNull
	}
	return types.TUninit
}

func (s argTypeSource) StackType(int) types.Type { return types.TCell }

// functionOrder implements the C3 clustering heuristic of Ottoni &
// Maher over the dynamic call graph: clusters merge along the
// heaviest caller->callee arcs (callee appended after caller) until a
// size cap, then clusters are emitted by descending hotness. profFns
// seeds singleton clusters for profiled functions with no arcs.
func (j *JIT) functionOrder(profFns []int) []int {
	graph := j.Counters.CallGraph()
	hotness := map[int]uint64{}
	type arc struct {
		caller, callee int
		w              uint64
	}
	var arcs []arc
	for a, w := range graph {
		arcs = append(arcs, arc{a.Caller, a.Callee, w})
		hotness[a.Callee] += w
		hotness[a.Caller] += 0
	}
	if !j.Cfg.FunctionSort {
		// Unsorted: stable function-ID order.
		ids := append([]int(nil), profFns...)
		sort.Ints(ids)
		return ids
	}
	sort.Slice(arcs, func(a, b int) bool {
		if arcs[a].w != arcs[b].w {
			return arcs[a].w > arcs[b].w
		}
		if arcs[a].caller != arcs[b].caller {
			return arcs[a].caller < arcs[b].caller
		}
		return arcs[a].callee < arcs[b].callee
	})

	const maxClusterFuncs = 16
	clusterOf := map[int]int{}
	clusters := map[int][]int{}
	ensure := func(f int) int {
		if c, ok := clusterOf[f]; ok {
			return c
		}
		clusterOf[f] = f
		clusters[f] = []int{f}
		return f
	}
	for _, a := range arcs {
		cc := ensure(a.caller)
		ce := ensure(a.callee)
		if cc == ce {
			continue
		}
		if len(clusters[cc])+len(clusters[ce]) > maxClusterFuncs {
			continue
		}
		clusters[cc] = append(clusters[cc], clusters[ce]...)
		for _, f := range clusters[ce] {
			clusterOf[f] = cc
		}
		delete(clusters, ce)
	}
	for _, id := range profFns {
		ensure(id)
	}
	// Order clusters by their hottest member.
	type cl struct {
		id   int
		heat uint64
	}
	var cls []cl
	for id, members := range clusters {
		var h uint64
		for _, f := range members {
			if hotness[f] > h {
				h = hotness[f]
			}
		}
		cls = append(cls, cl{id, h})
	}
	sort.Slice(cls, func(a, b int) bool {
		if cls[a].heat != cls[b].heat {
			return cls[a].heat > cls[b].heat
		}
		return cls[a].id < cls[b].id
	})
	var out []int
	for _, c := range cls {
		out = append(out, clusters[c.id]...)
	}
	return out
}

// debugCompileErr reports compile failures when REPRO_JIT_DEBUG is on.
func debugCompileErr(where string, fn string, err error) {
	if Debug && err != nil {
		fmt.Fprintf(os.Stderr, "JIT compile failure (%s, %s): %v\n", where, fn, err)
	}
}
