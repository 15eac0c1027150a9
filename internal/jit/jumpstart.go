package jit

// Warm-start ("jumpstart") support: SnapshotProfile captures what the
// profiling phase learned, keyed by stable function identity;
// Jumpstart replays a snapshot into a fresh JIT — re-minting
// profiling blocks from the recorded guard sets, remapping the saved
// TransIDs onto freshly allocated counters, and firing the global
// retranslation trigger immediately, so a restarted server publishes
// optimized code without serving a single profiling request. The live
// profiling phase of Figure 9 (minutes of depressed RPS) collapses to
// the optimized-compile time alone.

import (
	"sort"

	"repro/internal/faultinject"
	"repro/internal/hhbc"
	"repro/internal/jumpstart"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/types"
)

// SnapshotProfile captures the current profile state as an
// identity-keyed snapshot. It works both mid-profiling and after the
// global trigger fired (profiling blocks and counters are retained
// across OptimizeAll), so a warmed steady-state server can be dumped
// at any time.
func (j *JIT) SnapshotProfile() *jumpstart.Snapshot {
	data := j.Counters.Snapshot()
	snap := &jumpstart.Snapshot{}

	funcIdx := map[int]int{} // unit func ID -> snapshot func index
	ensureFunc := func(fnID int) int {
		if i, ok := funcIdx[fnID]; ok {
			return i
		}
		fn := j.Unit.Funcs[fnID]
		funcIdx[fnID] = len(snap.Funcs)
		snap.Funcs = append(snap.Funcs, jumpstart.FuncProfile{
			Name: fn.FullName(),
			Hash: fn.BytecodeHash(j.Unit),
		})
		return funcIdx[fnID]
	}

	// Translations, in deterministic function order. transLoc maps a
	// live TransID to its (snapshot func, local trans) coordinates.
	// The profiling tables are mutated by concurrent workers minting
	// translations, so they are copied under the writer mutex first.
	j.mu.Lock()
	profBlocks := make(map[int][]*region.Block, len(j.profBlocks))
	for id, blocks := range j.profBlocks {
		profBlocks[id] = append([]*region.Block(nil), blocks...)
	}
	j.mu.Unlock()
	var fnIDs []int
	for id := range profBlocks {
		fnIDs = append(fnIDs, id)
	}
	sort.Ints(fnIDs)
	type loc struct{ fn, tr int }
	transLoc := map[profile.TransID]loc{}
	for _, fnID := range fnIDs {
		fi := ensureFunc(fnID)
		for _, blk := range profBlocks[fnID] {
			pid := blk.ProfCounter
			rec := jumpstart.TransProfile{
				PC:         blk.Start,
				EntryDepth: blk.EntryStackDepth,
			}
			if int(pid) < len(data.Counts) {
				rec.Count = data.Counts[pid]
			}
			for _, t := range blk.EntryStackTypes {
				rec.EntryStackTypes = append(rec.EntryStackTypes, jumpstart.ReprOf(t))
			}
			for _, g := range blk.Preconds {
				rec.Guards = append(rec.Guards, jumpstart.GuardRepr{
					Stack: g.Loc.Kind == region.LocStack,
					Slot:  g.Loc.Slot,
					Type:  jumpstart.ReprOf(g.Type),
				})
			}
			transLoc[pid] = loc{fi, len(snap.Funcs[fi].Trans)}
			snap.Funcs[fi].Trans = append(snap.Funcs[fi].Trans, rec)
		}
	}

	// Arcs connect translations reached within one activation, which
	// is always within one function; cross-function arcs (none are
	// recorded today) would not be representable and are dropped.
	for a, w := range data.Arcs {
		from, okf := transLoc[a.From]
		to, okt := transLoc[a.To]
		if okf && okt && from.fn == to.fn {
			fp := &snap.Funcs[from.fn]
			fp.Arcs = append(fp.Arcs, jumpstart.ArcWeight{From: from.tr, To: to.tr, Weight: w})
		}
	}

	for site, m := range data.CallTargets {
		if site.FuncID < 0 || site.FuncID >= len(j.Unit.Funcs) {
			continue
		}
		fi := ensureFunc(site.FuncID)
		for cls, n := range m {
			snap.Funcs[fi].CallTargets = append(snap.Funcs[fi].CallTargets,
				jumpstart.CallTarget{PC: site.PC, Class: cls, Count: n})
		}
	}

	for e, w := range data.FuncCalls {
		if e.Caller < 0 || e.Caller >= len(j.Unit.Funcs) ||
			e.Callee < 0 || e.Callee >= len(j.Unit.Funcs) {
			continue
		}
		snap.CallGraph = append(snap.CallGraph, jumpstart.CallEdge{
			Caller: ensureFunc(e.Caller), Callee: ensureFunc(e.Callee), Weight: w,
		})
	}

	// Map iteration above is unordered; canonicalize so equal profiles
	// serialize identically.
	return jumpstart.Canonicalize(snap)
}

// JumpstartResult reports what a snapshot load accepted and rejected.
type JumpstartResult struct {
	// LoadedFuncs / LoadedTrans count accepted functions and re-minted
	// profiling translations.
	LoadedFuncs int
	LoadedTrans int
	// StaleFuncs were rejected because their current bytecode hash
	// differs from the snapshot's (changed source); they fall back to
	// normal live profiling.
	StaleFuncs []string
	// UnknownFuncs exist in the snapshot but not in the loaded unit.
	UnknownFuncs []string
	// Optimized reports whether the load fired global retranslation.
	Optimized bool
	// Corrupt reports that the snapshot failed integrity validation
	// (or an injected in-flight corruption) and was discarded whole:
	// the engine cold-starts with no partial profile state.
	Corrupt bool
}

// snapTypeSource replays a snapshot translation's recorded entry
// types into the region selector, standing in for the live frame the
// original profiling translation was minted from.
type snapTypeSource struct {
	locals map[int]types.Type
	stack  []types.Type
}

func (s snapTypeSource) LocalType(slot int) types.Type {
	if t, ok := s.locals[slot]; ok {
		return t
	}
	return types.TCell
}

func (s snapTypeSource) StackType(d int) types.Type {
	if d < len(s.stack) {
		return s.stack[d]
	}
	return types.TCell
}

// Jumpstart loads a profile snapshot into a fresh JIT. For every
// function whose bytecode hash matches, it re-runs profiling block
// selection from the recorded entry types (no machine code is
// compiled — the blocks exist only to rebuild the TransCFG), remaps
// the snapshot's counts, arcs, call-target histograms, and call-graph
// edges onto the newly minted TransIDs, and — in region mode, if
// anything loaded — fires OptimizeAll immediately. Stale or unknown
// functions are skipped; they profile normally, exactly as if the
// snapshot had never mentioned them.
func (j *JIT) Jumpstart(snap *jumpstart.Snapshot) JumpstartResult {
	res := JumpstartResult{}
	if snap == nil {
		return res
	}
	if j.Cfg.Faults.Should(faultinject.SnapshotCorrupt) {
		// Model corruption in flight (torn write, bad disk): round-trip
		// the snapshot through the wire codec with a flipped byte. The
		// CRC-validated decode must reject it, and the load degrades to
		// a clean cold start — no partial profile state is applied.
		data := jumpstart.Encode(snap)
		j.Cfg.Faults.CorruptBytes(data)
		damaged, err := jumpstart.Decode(data)
		if err != nil {
			res.Corrupt = true
			return res
		}
		// The flip landed somewhere the codec provably tolerates;
		// proceed with the decoded copy.
		snap = damaged
	}

	accepted := make([]*hhbc.Func, len(snap.Funcs))
	for i := range snap.Funcs {
		fp := &snap.Funcs[i]
		fn, ok := j.Unit.FuncByName(fp.Name)
		if !ok {
			res.UnknownFuncs = append(res.UnknownFuncs, fp.Name)
			continue
		}
		if fn.BytecodeHash(j.Unit) != fp.Hash {
			res.StaleFuncs = append(res.StaleFuncs, fp.Name)
			continue
		}
		accepted[i] = fn
		res.LoadedFuncs++
	}

	for i := range snap.Funcs {
		fn := accepted[i]
		if fn == nil {
			continue
		}
		fp := &snap.Funcs[i]
		ids := make([]profile.TransID, len(fp.Trans))
		for k := range ids {
			ids[k] = -1
		}
		for k := range fp.Trans {
			rec := &fp.Trans[k]
			// The hash matched, so recorded PCs are valid; guard anyway
			// against hand-edited snapshots.
			if rec.PC < 0 || rec.PC >= len(fn.Instrs) || rec.EntryDepth < 0 {
				continue
			}
			src := shapeSources.Get().(*shapeSource)
			src.snap.locals = map[int]types.Type{}
			for _, g := range rec.Guards {
				if !g.Stack {
					src.snap.locals[g.Slot] = g.Type.Type()
				}
			}
			for _, t := range rec.EntryStackTypes {
				src.snap.stack = append(src.snap.stack, t.Type())
			}
			blk := j.selectBlock(src, &src.snap, fn, rec.PC, rec.EntryDepth, region.ModeProfiling)
			blk.ProfCounter = j.Counters.NewCounter()
			j.Counters.Add(blk.ProfCounter, rec.Count)
			j.mu.Lock()
			j.profBlocks[fn.ID] = append(j.profBlocks[fn.ID], blk)
			j.mu.Unlock()
			ids[k] = blk.ProfCounter
			res.LoadedTrans++
		}
		for _, a := range fp.Arcs {
			if a.From >= 0 && a.From < len(ids) && a.To >= 0 && a.To < len(ids) &&
				ids[a.From] >= 0 && ids[a.To] >= 0 {
				j.Counters.AddArc(ids[a.From], ids[a.To], a.Weight)
			}
		}
		for _, ct := range fp.CallTargets {
			if ct.PC >= 0 && ct.PC < len(fn.Instrs) {
				j.Counters.AddCallTarget(profile.CallSite{FuncID: fn.ID, PC: ct.PC},
					ct.Class, ct.Count)
			}
		}
	}

	for _, e := range snap.CallGraph {
		if e.Caller < 0 || e.Caller >= len(accepted) || e.Callee < 0 || e.Callee >= len(accepted) {
			continue
		}
		caller, callee := accepted[e.Caller], accepted[e.Callee]
		if caller != nil && callee != nil {
			j.Counters.AddCall(caller.ID, callee.ID, e.Weight)
		}
	}

	if j.Cfg.Mode == ModeRegion && !j.optimized.Load() && res.LoadedTrans > 0 {
		j.OptimizeAll()
		res.Optimized = j.optimized.Load()
	}
	return res
}
