package jit

import (
	"errors"
	"fmt"
	"os"
	"sort"
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

// Debug, when set, dumps every compiled region's IR to stderr.
var Debug = os.Getenv("REPRO_JIT_DEBUG") != ""

// compile runs a region through the optimizer and back end and places
// the code in the cache, charging the compilation cycles to m. It
// holds the translated function's lease throughout (lease.go), so
// compiles of different functions proceed in parallel and compiles of
// the same function serialize.
func (j *JIT) compile(desc *region.Desc, bcfg hhir.BuildConfig, passes hhir.PassConfig,
	lay vasm.LayoutConfig, area mcode.Area, m *machine.Meter) (*mcode.Code, error) {

	fnID := desc.Entry().Func.ID
	j.leases.acquire(fnID, false)
	defer j.leases.release(fnID, false)

	code, err := j.compileBackend(desc, bcfg, passes, lay)
	if err != nil {
		return nil, err
	}
	if err := j.placeCode(code, area, m); err != nil {
		return nil, err
	}
	return code, nil
}

// compileBackend runs the compiler pipeline — HHIR build and
// optimization, lowering, layout, register allocation, optional
// dispatch fusion, assembly — without touching the code cache. It
// holds no locks of its own: callers hold the function's lease, and
// backends of different functions run at once.
func (j *JIT) compileBackend(desc *region.Desc, bcfg hhir.BuildConfig,
	passes hhir.PassConfig, lay vasm.LayoutConfig) (*mcode.Code, error) {

	running := j.compilesRunning.Add(1)
	defer j.compilesRunning.Add(-1)
	for {
		peak := j.peakCompiles.Load()
		if uint64(running) <= peak || j.peakCompiles.CompareAndSwap(peak, uint64(running)) {
			break
		}
	}

	// The injection draw is keyed by the region's entry address, not
	// the global draw counter: parallel compile workers interleave
	// their draws nondeterministically, but the n-th compile attempt of
	// a given (func, PC) fires identically however the attempts are
	// scheduled, so every CompileWorkers count fails the same
	// translations.
	entry := desc.Entry()
	if j.Cfg.Faults.ShouldAt(faultinject.CompileError,
		uint64(entry.Func.ID)<<32^uint64(uint32(entry.Start))) {
		return nil, faultinject.Errf(faultinject.CompileError)
	}
	hu, err := hhir.Build(j.Unit, j.Env, desc, bcfg)
	if err != nil {
		return nil, err
	}
	hhir.Optimize(hu, passes)
	vu, err := vasm.Lower(hu)
	if err != nil {
		return nil, err
	}
	vasm.Layout(vu, lay)
	var before *vasm.Unit
	if j.allocCheck != nil {
		before = vu.Clone()
	}
	vasm.Allocate(vu)
	if before != nil {
		j.allocCheck(hu, before, vu)
	}
	if j.Cfg.FuseDispatch {
		if n := vasm.Fuse(vu); n > 0 {
			atomic.AddUint64(&j.stats.FusedInstrs, uint64(n))
		}
	}
	code, err := mcode.Assemble(vu)
	if err != nil {
		return nil, err
	}
	code.Guards, code.Loads = hu.Stats, hu.Opt
	if Debug && !bcfg.Profiling {
		fmt.Fprintf(os.Stderr, "=== region for %s ===\n%s\n--- HHIR ---\n%s--- vasm ---\n%s--- guards: %s ---\n--- loads: %s ---\n--- regalloc: %s; %d fallthrough jumps elided ---\n\n",
			desc.Entry().Func.FullName(), desc, hu, vu, code.Guards, code.Loads, vu.Alloc, code.ElidedJumps)
	}
	return code, nil
}

// placeCode allocates cache space for assembled code, rebases it, and
// charges the compile fee to m. The cache allocator is internally
// locked, and minting workers place code of different functions
// concurrently: space one worker's recycle frees may be taken by
// another before the retry below, which then fails as cache-full and
// the mint is simply attempted again on a later dispatch. OptimizeAll
// calls this sequentially in function-sorted order so hot-area
// placement stays deterministic.
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
	if j.Cfg.FuseDispatch {
		machine.PrepareDispatch(code)
	}
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
	var src region.TypeSource = frameTypeSource{fr}
	if j.Cfg.EnableShapes {
		// Shape facts: profiled monomorphic property reads type their
		// results in the selector, extending tracelets through them.
		// Profiling preconditions seed the optimized regions, so the
		// shape property-access policy (no class pinning at access
		// sites) must apply there too, or optimized translations inherit
		// per-class entry guards that the shape guard was meant to
		// replace.
		src = shapeSource{src, j}
	}
	if kind == ModeProfiling {
		blk := region.Select(j.Unit, fn, fr.PC, len(fr.Stack), src, region.ModeProfiling, 0)
		blk.ProfCounter = j.Counters.NewCounter()
		return j.mint(region.NewDesc(blk), kind, hhir.BuildConfig{Profiling: true,
			Counter: blk.ProfCounter, EnableShapes: j.Cfg.EnableShapes}, m)
	}
	blk := region.Select(j.Unit, fn, fr.PC, len(fr.Stack), src, region.ModeLive, 0)
	// Live translations have no call-profile-driven optimizations;
	// inline caching handles dispatch (Section 5.3.3). Shape ICs are
	// likewise self-filling, so live code gets them too, and Counters
	// are threaded so shape-monomorphic sites can take the guarded
	// fixed-slot path once a profile exists.
	return j.mint(region.NewDesc(blk), kind, hhir.BuildConfig{
		EnableShapes: j.Cfg.EnableShapes, Counters: j.Counters}, m)
}

// mint is the one mint path: it compiles desc as a translation of the
// given kind (ModeTracelet or ModeProfiling; ModeRegion only from
// PublishRegion — the global retranslation publishes its batch itself),
// places the code in the kind's cache area, installs the translation
// into the index and accounts it, charging the compile to m. A compile
// failure quarantines the address — except cache exhaustion, which is
// global pressure, not this address's fault — and returns nil.
func (j *JIT) mint(desc *region.Desc, kind Mode, bcfg hhir.BuildConfig, m *machine.Meter) *Translation {
	entry := desc.Entry()
	key := transKey{entry.Func.ID, entry.Start}
	area, _, _ := j.residence(kind)
	code, err := j.compile(desc, bcfg, j.passConfig(bcfg.Profiling),
		vasm.LayoutConfig{ProfileGuided: false, SplitCold: true}, area, m)
	if err != nil {
		debugCompileErr(kind.String(), entry.Func.FullName(), err)
		if !errors.Is(err, mcode.ErrCacheFull) {
			j.noteCompileFailure(key, err)
		}
		return nil
	}
	tr := j.newTranslation(desc, kind, code)
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
// regions.
func (j *JIT) regionBuildConfig() hhir.BuildConfig {
	return hhir.BuildConfig{
		EnableInlining:       j.Cfg.EnableInlining,
		EnableMethodDispatch: j.Cfg.EnableMethodDispatch,
		DisableInlineCache:   !j.Cfg.EnableMethodDispatch,
		EnableShapes:         j.Cfg.EnableShapes,
		Counters:             j.Counters,
		RegionOf:             j.regionForInline,
	}
}

// PublishRegion compiles desc the way the global retranslation
// compiles the regions it forms and publishes it at its entry address;
// nil when the compile fails. Tests run hand-built regions through it.
func (j *JIT) PublishRegion(desc *region.Desc) *Translation {
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

// newTranslation wraps placed code as the translation of desc and
// accounts it under its kind; publishing it is the caller's step (mint
// installs one, the optimized publish swaps a batch in). Live tracelets
// and optimized regions chain — gen-1's defining trick is smashing
// bind jumps together. Profiling translations deliberately do not, in
// either direction: every entry must pass through the dispatcher so
// RecordArc sees the transfer and the TransCFG stays accurate, and the
// optimized publish retires exactly this kind — keeping them out of
// links means no chainable target is ever semantically stale.
func (j *JIT) newTranslation(desc *region.Desc, kind Mode, code *mcode.Code) *Translation {
	entry := desc.Entry()
	code.Chainable = j.Cfg.EnableChaining && kind != ModeProfiling
	tr := &Translation{
		FuncID: entry.Func.ID, PC: entry.Start, Kind: kind,
		Preconds: entry.Preconds, EntryDepth: entry.EntryStackDepth,
		Code: code, ProfID: -1, Desc: desc,
	}
	if kind == ModeProfiling {
		tr.ProfID = entry.ProfCounter
	}
	_, count, bytes := j.residence(kind)
	atomic.AddUint64(count, 1)
	atomic.AddUint64(bytes, code.Size)
	return tr
}

// installLocked publishes tr into the translation index RCU-style:
// the current index is copied, the copy is extended, and the pointer
// is swapped. Callers hold j.mu; concurrent lock-free readers keep
// iterating the old map untouched.
func (j *JIT) installLocked(tr *Translation) {
	key := transKey{tr.FuncID, tr.PC}
	old := *j.trans.Load()
	idx := make(transIndex, len(old)+1)
	for k, v := range old {
		idx[k] = v
	}
	chain := append([]*Translation(nil), old[key]...)
	idx[key] = append(chain, tr)
	j.trans.Store(&idx)
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
// ever happens (CAS-claimed); with BackgroundCompile it executes on a
// compiler goroutine while workers keep serving from profiling
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
	if j.Cfg.BackgroundCompile {
		j.optimizeAll(j.CompileMeter)
	} else {
		j.optimizeAll(j.Meter)
	}
}

func (j *JIT) optimizeAll(meter *machine.Meter) {
	if j.degrade.Load() >= DegradeNoMint {
		// The ladder says stop reoptimizing: leave the run unclaimed so
		// a later trigger can fire it if pressure recedes.
		return
	}
	if !j.optStarted.CompareAndSwap(false, true) {
		return
	}
	atomic.AddUint64(&j.stats.OptimizeRuns, 1)

	// Snapshot the profiling tables. Lookup stops minting profiling
	// translations once the run is claimed; a mint already in flight
	// may still land after the snapshot and simply misses this (single)
	// optimization round. The blocks are deep-copied: guard
	// relaxation widens Preconds in place, and the originals' Precond
	// slices are shared with live profiling translations that workers
	// are still guard-matching against.
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
		all = append(all, funcRegions{fnID, regions})
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

	// Compile. The index is not touched yet: workers keep dispatching
	// to profiling translations throughout this (long) phase.
	bcfg := j.regionBuildConfig()
	// Backends fan over the compile workers, each claiming whole
	// functions and holding the function's writer lease while its
	// regions compile (minting workers touching the same function queue
	// behind the optimizer). A failed backend is retried once: the
	// global publish runs once ever, so one bad draw (an injected
	// compile error) should not permanently cost a region its
	// optimized code.
	type unit struct {
		code *mcode.Code
		err  error
	}
	results := make([][]unit, len(all))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(max(1, j.Cfg.CompileWorkers), len(all))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(all) {
					return
				}
				fr := all[i]
				j.leases.acquire(fr.fnID, true)
				res := make([]unit, len(fr.regions))
				for ri, desc := range fr.regions {
					code, err := j.compileBackend(desc, bcfg, j.passConfig(false), j.layoutConfig())
					if err != nil {
						code, err = j.compileBackend(desc, bcfg, j.passConfig(false), j.layoutConfig())
					}
					res[ri] = unit{code, err}
				}
				results[i] = res
				j.leases.release(fr.fnID, true)
			}
		}()
	}
	wg.Wait()

	// Placement into the hot area and minting run sequentially in the
	// function-sorted order, so addresses, huge-page coverage, and
	// fetch behavior do not depend on the worker count. A transient
	// placement failure (a flaky allocation) is likewise retried once.
	var newTrans []*Translation
	published := map[int]bool{} // fnID -> all regions compiled
	for i, fr := range all {
		ok := len(fr.regions) > 0
		for ri, desc := range fr.regions {
			code, err := results[i][ri].code, results[i][ri].err
			if err == nil {
				err = j.placeCode(code, mcode.AreaHot, meter)
				if err != nil && !errors.Is(err, mcode.ErrCacheFull) {
					err = j.placeCode(code, mcode.AreaHot, meter)
				}
			}
			if err != nil {
				debugCompileErr("optimize", desc.Entry().Func.FullName(), err)
				ok = false // cache full: this function keeps its profiling code
				continue
			}
			newTrans = append(newTrans, j.newTranslation(desc, ModeRegion, code))
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
	old := *j.trans.Load()
	idx := make(transIndex, len(old)+len(newTrans))
	for key, chain := range old {
		var keep []*Translation
		for _, tr := range chain {
			if tr.Kind == ModeProfiling && published[tr.FuncID] {
				continue
			}
			keep = append(keep, tr)
		}
		if len(keep) > 0 {
			idx[key] = keep
		}
	}
	for _, tr := range newTrans {
		key := transKey{tr.FuncID, tr.PC}
		if q := j.quarantine[key]; q != nil && q.permanent {
			// The address was demoted to interp-only after repeated
			// faults; publishing an optimized region there would
			// resurrect the faulting code path. Return the extent.
			j.retireCode(tr)
			continue
		}
		idx[key] = append(idx[key], tr)
	}
	j.trans.Store(&idx)
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

// cloneBlocks deep-copies profiling blocks for region formation. Live
// profiling translations alias the originals' Preconds (Matches
// reads them lock-free on every dispatch), so any pass that rewrites
// guards — relaxation in particular — must work on private copies.
func cloneBlocks(blocks []*region.Block) []*region.Block {
	out := make([]*region.Block, len(blocks))
	for i, blk := range blocks {
		cp := *blk
		cp.Preconds = append([]region.Guard(nil), blk.Preconds...)
		cp.EntryStackTypes = append([]types.Type(nil), blk.EntryStackTypes...)
		cp.Succs = append([]int(nil), blk.Succs...)
		if blk.PostLocals != nil {
			cp.PostLocals = make(map[int]types.Type, len(blk.PostLocals))
			for k, v := range blk.PostLocals {
				cp.PostLocals[k] = v
			}
		}
		out[i] = &cp
	}
	return out
}

// regionForInline supplies callee regions to the partial inliner: the
// callee's own profiled region when available, otherwise a region
// synthesized from the argument types.
func (j *JIT) regionForInline(f *hhbc.Func, argTypes []types.Type) *region.Desc {
	j.mu.Lock()
	blocks := cloneBlocks(j.profBlocks[f.ID])
	j.mu.Unlock()
	if len(blocks) > 0 {
		g := region.BuildTransCFG(blocks, profIDs(blocks), j.Counters)
		regions := region.FormRegions(g, region.FormRegionsConfig{MaxBCInstrs: 200})
		for _, d := range regions {
			if d.Entry().Start == 0 {
				return d
			}
		}
	}
	// Synthesize from argument types (static region).
	var src region.TypeSource = argTypeSource{argTypes: argTypes, fn: f}
	if j.Cfg.EnableShapes {
		src = shapeSource{src, j}
	}
	blk := region.Select(j.Unit, f, 0, 0, src, region.ModeLive, 0)
	return region.NewDesc(blk)
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
