package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/emitter"
	"repro/internal/hhbbc"
	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/hphpc"
	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/lexer"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/types"
	"repro/internal/vasm"
)

// Every layer is measured from outside: by timing calls into its
// exported functions, or by differencing its exported counters.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs fn inside a span and returns how long it took.
func timed(t *tracer, name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// aotTimes are the stage times and sizes of one ahead-of-time compile.
type aotTimes struct {
	tokenize, parse, hphpc, emit, hhbbc time.Duration
	tokens, funcs, emitted, optimized   int
}

// wall is the time the staged calls took together.
func (a aotTimes) wall() time.Duration {
	return a.tokenize + a.parse + a.hphpc + a.emit + a.hhbbc
}

func countInstrs(u *hhbc.Unit) int {
	n := 0
	for _, f := range u.Funcs {
		n += len(f.Instrs)
	}
	return n
}

// compileStaged is core.Compile taken apart: the same stages on the
// same input, each under its own span. parser.Parse tokenizes
// internally, so its time includes the lexer's; the lexer alone is
// timed by one extra Tokenize call.
func compileStaged(src string, t *tracer, parent int) (*hhbc.Unit, aotTimes, error) {
	var a aotTimes
	var err error
	full := src
	if !strings.Contains(src, "class Exception") {
		full = core.Prelude + src
	}
	a.tokenize = timed(t, "lexer", parent, func() {
		var toks []lexer.Token
		toks, err = lexer.Tokenize(full)
		a.tokens = len(toks)
	})
	if err != nil {
		return nil, a, err
	}
	var prog *ast.Program
	a.parse = timed(t, "parser", parent, func() { prog, err = parser.Parse(full) })
	if err != nil {
		return nil, a, err
	}
	a.hphpc = timed(t, "hphpc", parent, func() { hphpc.Optimize(prog) })
	var unit *hhbc.Unit
	a.emit = timed(t, "emitter", parent, func() { unit, err = emitter.Emit(prog) })
	if err != nil {
		return nil, a, err
	}
	a.funcs, a.emitted = len(unit.Funcs), countInstrs(unit)
	a.hhbbc = timed(t, "hhbbc", parent, func() { err = hhbbc.Optimize(unit) })
	if err != nil {
		return nil, a, err
	}
	a.optimized = countInstrs(unit)
	return unit, a, nil
}

// reportAOT stores the median stage times of several staged compiles
// and the sizes of what they produced.
func reportAOT(m metrics, runs []aotTimes, unit *hhbc.Unit) {
	pick := func(f func(aotTimes) time.Duration) float64 {
		var xs []float64
		for _, a := range runs {
			xs = append(xs, ms(f(a)))
		}
		return median(xs)
	}
	m["lexer.tokenize_ms"] = pick(func(a aotTimes) time.Duration { return a.tokenize })
	m["parser.parse_ms"] = pick(func(a aotTimes) time.Duration { return a.parse })
	m["hphpc.optimize_ms"] = pick(func(a aotTimes) time.Duration { return a.hphpc })
	m["emitter.emit_ms"] = pick(func(a aotTimes) time.Duration { return a.emit })
	m["hhbbc.optimize_ms"] = pick(func(a aotTimes) time.Duration { return a.hhbbc })
	a := runs[0]
	m["lexer.tokens"] = float64(a.tokens)
	m["emitter.funcs"] = float64(a.funcs)
	m["emitter.bc_instrs"] = float64(a.emitted)
	m["hhbbc.bc_instrs"] = float64(a.optimized)
	m["hhbbc.unit_bytes"] = float64(len(hhbc.EncodeUnit(unit)))
}

// heldConfig is the default region JIT with the global retranslation
// trigger out of reach, so the benchmark decides when OptimizeAll
// runs and can time it (as BenchmarkParallelCompile does).
func heldConfig() jit.Config {
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 1 << 40
	return cfg
}

// roundRobinUntilTrigger serves round-robin requests on an engine
// built with heldConfig until it has seen as many function entries as
// the default trigger asks for.
func roundRobinUntilTrigger(c *client) {
	trigger := jit.DefaultConfig().ProfileTrigger
	for n := 0; c.vm.JIT.Stats().Entries < trigger; n++ {
		c.request(n % len(c.site.eps))
	}
}

// profiledFunc is one function's profiling blocks in mint order.
type profiledFunc struct {
	fnID   int
	blocks []*region.Block
	ids    []profile.TransID
}

// profilingBlocks collects the profiling blocks of a JIT that has not
// optimized yet, from its published translations.
func profilingBlocks(j *jit.JIT) []profiledFunc {
	byFn := map[int][]*jit.Translation{}
	j.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind == jit.ModeProfiling {
			byFn[tr.FuncID] = append(byFn[tr.FuncID], tr)
		}
	})
	var out []profiledFunc
	for fnID, trs := range byFn {
		sort.Slice(trs, func(a, b int) bool { return trs[a].ProfID < trs[b].ProfID })
		pf := profiledFunc{fnID: fnID}
		for _, tr := range trs {
			pf.blocks = append(pf.blocks, tr.Desc.Entry())
			pf.ids = append(pf.ids, tr.ProfID)
		}
		out = append(out, pf)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].fnID < out[b].fnID })
	return out
}

// cloneBlocks deep-copies profiling blocks: guard relaxation widens
// Preconds in place, and the originals are still being guard-matched
// by the engine's live profiling translations.
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

// inlineRegions rebuilds, from outside, the callee-region source the
// JIT hands to the partial inliner: the callee's own profiled entry
// region when it has one, otherwise a region synthesized from the
// argument types. jit.replay_mismatches checks that the copy still
// agrees with the original.
func inlineRegions(j *jit.JIT, profiled []profiledFunc) func(*hhbc.Func, []types.Type) *region.Desc {
	byFn := map[int]profiledFunc{}
	for _, pf := range profiled {
		byFn[pf.fnID] = pf
	}
	return func(f *hhbc.Func, argTypes []types.Type) *region.Desc {
		if pf, ok := byFn[f.ID]; ok {
			g := region.BuildTransCFG(cloneBlocks(pf.blocks), pf.ids, j.Counters)
			for _, d := range region.FormRegions(g, region.FormRegionsConfig{MaxBCInstrs: 200}) {
				if d.Entry().Start == 0 {
					return d
				}
			}
		}
		src := shapeFacts{argTypes: argTypes, fn: f, j: j}
		return region.NewDesc(region.Select(j.Unit, f, 0, 0, src, region.ModeLive, 0))
	}
}

// shapeFacts feeds known argument types and profiled property shapes
// to the region selector (region.TypeSource, region.ShapeFactSource).
type shapeFacts struct {
	argTypes []types.Type
	fn       *hhbc.Func
	j        *jit.JIT
}

func (s shapeFacts) LocalType(slot int) types.Type {
	if slot < len(s.argTypes) {
		return s.argTypes[slot]
	}
	if slot < len(s.fn.Params) {
		if p := s.fn.Params[slot]; p.HasDefault {
			return types.FromKind(p.DefaultKind)
		}
		return types.TNull
	}
	return types.TUninit
}

func (s shapeFacts) StackType(int) types.Type { return types.TCell }

func (s shapeFacts) PropReadType(fnID, pc int, name string) types.Type {
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

func hhirInstrs(u *hhir.Unit) int {
	n := 0
	for _, b := range u.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func vasmInstrs(u *vasm.Unit) int {
	n := 0
	for _, b := range u.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// replayPipeline times the JIT's global retranslation stage by stage.
// It serves a fresh engine up to the default trigger, replays region
// formation over its profiling blocks, lets the engine run its own
// OptimizeAll (timed whole), then replays the back end over every
// optimized translation's region and compares each replayed code size
// with the published one, so the stage timers are never about a
// different program.
func replayPipeline(s *site, unit *hhbc.Unit, t *tracer, parent int, m metrics) error {
	root := t.begin("replay", parent)
	defer t.end(root)
	eng, err := core.NewEngine(unit, heldConfig(), io.Discard)
	if err != nil {
		return err
	}
	c := newClient(s, eng.VM)
	roundRobinUntilTrigger(c)
	j := eng.VM.JIT
	before := j.Stats()
	m["jit.profiling_translations"] = float64(before.ProfilingTranslations)
	m["jit.bytes_profiling"] = float64(before.BytesProfiling)

	// Jumpstart codec over the same profile.
	var blob []byte
	snap := eng.ProfileSnapshot()
	m["jumpstart.encode_ms"] = ms(timed(t, "jumpstart.Encode", root, func() { blob = jumpstart.Encode(snap) }))
	m["jumpstart.decode_ms"] = ms(timed(t, "jumpstart.Decode", root, func() { _, err = jumpstart.Decode(blob) }))
	if err != nil {
		return fmt.Errorf("jumpstart round trip: %w", err)
	}
	m["jumpstart.snapshot_bytes"] = float64(len(blob))

	// stage accumulates time per stage metric; every entry is part of
	// what OptimizeAll does, so their sum over its time is the
	// replay's coverage.
	stage := map[string]time.Duration{}
	step := func(metric, name string, parent int, fn func()) {
		stage[metric] += timed(t, name, parent, fn)
	}

	// Region formation, per profiled function.
	profiled := profilingBlocks(j)
	var regions, blocks, bcInstrs int
	for _, pf := range profiled {
		fn := t.begin("function", root)
		var g *region.TransCFG
		var descs []*region.Desc
		step("region.transcfg_ms", "region.BuildTransCFG", fn, func() {
			g = region.BuildTransCFG(cloneBlocks(pf.blocks), pf.ids, j.Counters)
		})
		step("region.form_ms", "region.FormRegions", fn, func() {
			descs = region.FormRegions(g, region.DefaultFormConfig)
		})
		step("region.relax_ms", "region.Relax", fn, func() {
			for _, d := range descs {
				region.Relax(d, g, j.Counters, region.DefaultRelaxConfig)
			}
		})
		t.end(fn)
		regions += len(descs)
		for _, d := range descs {
			blocks += len(d.Blocks)
			bcInstrs += d.NumInstrs()
		}
	}
	m["region.regions"] = float64(regions)
	m["region.blocks"] = float64(blocks)
	m["region.bc_instrs"] = float64(bcInstrs)

	whole := timed(t, "jit.OptimizeAll", root, j.OptimizeAll)
	after := j.Stats()
	m["jit.optimize_all_ms"] = ms(whole)
	m["jit.optimized_translations"] = float64(after.OptimizedTranslations)
	m["jit.bytes_optimized"] = float64(after.BytesOptimized)

	// Back end, per optimized translation, in code-cache order.
	bcfg := hhir.BuildConfig{
		EnableInlining: true, EnableMethodDispatch: true, EnableShapes: true,
		Counters: j.Counters, RegionOf: inlineRegions(j, profiled),
	}
	var optimized []*jit.Translation
	j.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind == jit.ModeRegion {
			optimized = append(optimized, tr)
		}
	})
	sort.Slice(optimized, func(a, b int) bool { return optimized[a].Code.Base < optimized[b].Code.Base })
	var built, optInstrs, lowered, fused, final, mismatches int
	var codeBytes uint64
	for _, tr := range optimized {
		id := t.begin("translation", root)
		var hu *hhir.Unit
		var vu *vasm.Unit
		var code *mcode.Code
		step("hhir.build_ms", "hhir.Build", id, func() { hu, err = hhir.Build(j.Unit, j.Env, tr.Desc, bcfg) })
		if err != nil {
			return fmt.Errorf("replay hhir.Build: %w", err)
		}
		built += hhirInstrs(hu)
		step("hhir.optimize_ms", "hhir.Optimize", id, func() { hhir.Optimize(hu, hhir.AllPasses) })
		optInstrs += hhirInstrs(hu)
		step("vasm.lower_ms", "vasm.Lower", id, func() { vu, err = vasm.Lower(hu) })
		if err != nil {
			return fmt.Errorf("replay vasm.Lower: %w", err)
		}
		lowered += vasmInstrs(vu)
		step("vasm.layout_ms", "vasm.Layout", id, func() { vasm.Layout(vu, vasm.DefaultLayout) })
		step("vasm.regalloc_ms", "vasm.Allocate", id, func() { vasm.Allocate(vu) })
		step("vasm.fuse_ms", "vasm.Fuse", id, func() { fused += vasm.Fuse(vu) })
		final += vasmInstrs(vu)
		step("mcode.assemble_ms", "mcode.Assemble", id, func() { code, err = mcode.Assemble(vu) })
		if err != nil {
			return fmt.Errorf("replay mcode.Assemble: %w", err)
		}
		code.Place(tr.Code.Base)
		step("machine.prepare_dispatch_ms", "machine.PrepareDispatch", id, func() { machine.PrepareDispatch(code) })
		t.end(id)
		codeBytes += code.Size
		if code.Size != tr.Code.Size {
			mismatches++
		}
	}
	m["hhir.instrs_built"] = float64(built)
	m["hhir.instrs_optimized"] = float64(optInstrs)
	m["vasm.instrs_lowered"] = float64(lowered)
	m["vasm.fused_instrs"] = float64(fused)
	m["vasm.instrs_final"] = float64(final)
	m["mcode.code_bytes"] = float64(codeBytes)
	m["jit.replay_mismatches"] = float64(mismatches)
	var stages time.Duration
	for metric, d := range stage {
		m[metric] = ms(d)
		stages += d
	}
	m["jit.replay_coverage"] = float64(stages) / float64(whole)
	return nil
}
