package jit_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/jit"
	"repro/internal/mcode"
	"repro/internal/perflab"
	"repro/internal/region"
	"repro/internal/runtime"
	"repro/internal/types"
)

// kept is a deep copy of what a published translation keeps from its
// compile: the code's stream, register lists, jump tables, exit
// descriptors, inline frames, checks, constants and end state, every
// window of its metadata array (addresses, dispatch metadata, smash
// sites), its link slots, and the region it was compiled from.
type kept struct {
	Instrs        []mcode.Instr
	Regs          []int32
	JumpTargets   []int32
	Exits         []mcode.Exit
	Inlines       []mcode.Inline
	Addr          []int32
	CostPrefix    []int32
	DispatchFlags []int32
	FetchTails    []int32
	Sites         []int32
	Links         []*mcode.Link // per smash site
	Checks        []runtime.Check
	Consts        []runtime.Value
	EndLocals     []types.Type
	EndStack      []types.Type
	Desc          []region.Block
	Arcs          [][]int
	Weight        []uint64
	Chains        [][]int
}

func keep(tr *jit.Translation) kept {
	c := &tr.Code
	k := kept{
		Instrs:        slices.Clone(c.Instrs),
		Regs:          slices.Clone(c.Regs),
		JumpTargets:   slices.Clone(c.JumpTargets),
		Exits:         slices.Clone(c.Exits),
		Inlines:       slices.Clone(c.Inlines),
		Addr:          slices.Clone(c.Addr),
		CostPrefix:    slices.Clone(c.CostPrefix),
		DispatchFlags: slices.Clone(c.DispatchFlags),
		FetchTails:    slices.Clone(c.FetchTails),
		Sites:         slices.Clone(c.Sites),
		Checks:        slices.Clone(c.Checks),
		Consts:        slices.Clone(c.Consts),
		EndLocals:     slices.Clone(c.EndLocals),
		EndStack:      slices.Clone(c.EndStack),
		Arcs:          slices.Clone(tr.Desc.Arcs),
		Weight:        slices.Clone(tr.Desc.Weight),
		Chains:        slices.Clone(tr.Desc.Chains),
	}
	for _, site := range c.Sites {
		k.Links = append(k.Links, c.LoadLink(int(site)))
	}
	for i := range k.Arcs {
		k.Arcs[i] = slices.Clone(k.Arcs[i])
	}
	for i := range k.Chains {
		k.Chains[i] = slices.Clone(k.Chains[i])
	}
	for _, b := range tr.Desc.Blocks {
		cp := *b
		cp.Preconds = slices.Clone(b.Preconds)
		cp.EntryStackTypes = slices.Clone(b.EntryStackTypes)
		cp.Succs = slices.Clone(b.Succs)
		k.Desc = append(k.Desc, cp)
	}
	return k
}

// snapshot keeps every translation of j.
func snapshot(j *jit.JIT) map[*jit.Translation]kept {
	out := map[*jit.Translation]kept{}
	j.ForEachTranslation(func(tr *jit.Translation) { out[tr] = keep(tr) })
	return out
}

// unchanged fails the test at the first translation in was whose kept
// state no longer equals its copy there, naming the field that moved.
func unchanged(t *testing.T, when string, was map[*jit.Translation]kept) {
	t.Helper()
	for tr, k := range was {
		old, cur := reflect.ValueOf(k), reflect.ValueOf(keep(tr))
		for f := 0; f < old.NumField(); f++ {
			if a, b := old.Field(f).Interface(), cur.Field(f).Interface(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: the %s of the %v translation of func %d at pc %d changed:\nwas %+v\nnow %+v",
					when, old.Type().Field(f).Name, tr.Kind, tr.FuncID, tr.PC, a, b)
			}
		}
	}
}

// warmed builds a region-mode engine and warms it for three passes
// over the site on profiling code only: the global retranslation runs
// when the test says.
func warmed(t *testing.T) *jit.JIT {
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 1 << 40
	eng, eps, err := perflab.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := perflab.Warm(eng, eps, 3, nil); err != nil {
		t.Fatal(err)
	}
	return eng.VM.JIT
}

// optimize runs j's global retranslation, some 200 compiles, and
// returns its optimized translations in code-cache order.
func optimize(t *testing.T, j *jit.JIT) []*jit.Translation {
	j.OptimizeAll()
	if !j.Optimized() {
		t.Fatal("OptimizeAll did not publish")
	}
	var out []*jit.Translation
	j.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind == jit.ModeRegion {
			out = append(out, tr)
		}
	})
	slices.SortFunc(out, func(a, b *jit.Translation) int { return int(a.Code.Base) - int(b.Code.Base) })
	return out
}

// sameCode reports whether a and b are the same instruction stream.
func sameCode(a, b *mcode.Code) bool {
	if len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		if x, y := a.Decode(i), b.Decode(i); x.String() != y.String() {
			return false
		}
	}
	return true
}

// TestRecycledScratchLeavesPublishedCodeAlone: compiles take their HHIR
// and vasm units from a pool the compile before them released them to
// (hhir.Release, vasm.Release), and nothing a published translation
// keeps may live in that memory. What profiling translations and
// optimized regions keep is deep-copied — each region compiled again
// by PublishRegion is copied right after its compile — and every copy
// must still equal its translation after all the compiles that follow.
// The compiles must not depend on what a recycled unit held before: a
// second engine's global retranslation of the same profile produces
// the code the first one did.
func TestRecycledScratchLeavesPublishedCodeAlone(t *testing.T) {
	j := warmed(t)
	profiling := snapshot(j)
	if len(profiling) == 0 {
		t.Fatal("warm-up published no translations")
	}
	regions := optimize(t, j)
	unchanged(t, "after OptimizeAll", profiling)
	was := snapshot(j)

	again := map[*jit.Translation]kept{}
	for _, tr := range regions {
		cp := j.PublishRegion(tr.Desc)
		if cp == nil {
			t.Fatalf("func %d pc %d: compiling its region again failed", tr.FuncID, tr.PC)
		}
		again[cp] = keep(cp)
	}
	for _, w := range []map[*jit.Translation]kept{profiling, was, again} {
		unchanged(t, "after compiling every region again", w)
	}

	other := optimize(t, warmed(t))
	for _, w := range []map[*jit.Translation]kept{profiling, was, again} {
		unchanged(t, "after a second engine's OptimizeAll", w)
	}
	t.Logf("%d profiling translations, %d optimized regions", len(profiling), len(regions))
	if len(other) != len(regions) {
		t.Fatalf("%d optimized regions, then %d in a second engine", len(regions), len(other))
	}
	for i, tr := range regions {
		if o := other[i]; o.FuncID != tr.FuncID || o.PC != tr.PC || !sameCode(&o.Code, &tr.Code) {
			t.Fatalf("func %d pc %d: the second engine compiled different code", tr.FuncID, tr.PC)
		}
	}
}
