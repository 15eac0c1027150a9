package region_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/region"
	"repro/internal/types"
)

// replaySource replays a profiling block's recorded entry types: its
// local guards' types (TCell for any other local) and its entry stack.
type replaySource struct {
	locals map[int]types.Type
	stack  []types.Type
}

func (s *replaySource) LocalType(slot int) types.Type {
	if t, ok := s.locals[slot]; ok {
		return t
	}
	return types.TCell
}

func (s *replaySource) StackType(d int) types.Type {
	if d < len(s.stack) {
		return s.stack[d]
	}
	return types.TCell
}

func (*replaySource) PropReadType(int, int, string) types.Type { return types.TInitCell }

// selection is one Select call: where, and from which entry types.
type selection struct {
	u   *hhbc.Unit
	fn  *hhbc.Func
	pc  int
	dep int
	src region.TypeSource
}

func (s selection) run() *region.Block {
	return region.Select(s.u, s.fn, s.pc, s.dep, s.src, region.ModeProfiling, 0)
}

// profilingStarts warms a region-mode engine over workload.Combined()
// on profiling code only and returns a selection at the start of each
// of its profiling blocks, replaying the block's entry types.
func profilingStarts(t *testing.T) []selection {
	t.Helper()
	cfg := jit.DefaultConfig()
	cfg.ProfileTrigger = 1 << 40
	eng, eps, err := perflab.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := perflab.Warm(eng, eps, 2, nil); err != nil {
		t.Fatal(err)
	}
	j := eng.VM.JIT
	var out []selection
	j.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind != jit.ModeProfiling {
			return
		}
		b := tr.Desc.Entry()
		src := &replaySource{locals: map[int]types.Type{}, stack: b.EntryStackTypes}
		for _, g := range b.Preconds {
			if g.Loc.Kind == region.LocLocal {
				src.locals[g.Loc.Slot] = g.Type
			}
		}
		out = append(out, selection{j.Unit, b.Func, b.Start, b.EntryStackDepth, src})
	})
	if len(out) < 100 {
		t.Fatalf("warm-up minted %d profiling translations", len(out))
	}
	slices.SortFunc(out, func(a, b selection) int {
		if a.fn.ID != b.fn.ID {
			return a.fn.ID - b.fn.ID
		}
		return a.pc - b.pc
	})
	return out
}

// TestRecycledSelectorCarriesNoHistory: Select draws its selector from
// a pool the selection before it released it to, and a block must not
// depend on what that selection saw. Every profiling block start of
// the site is selected forward, in reverse and from four goroutines at
// once, and each must give the same Block every time.
func TestRecycledSelectorCarriesNoHistory(t *testing.T) {
	sels := profilingStarts(t)
	forward := make([]*region.Block, len(sels))
	for i, s := range sels {
		forward[i] = s.run()
	}
	same := func(how string, i int, b *region.Block) {
		t.Helper()
		if !reflect.DeepEqual(b, forward[i]) {
			t.Fatalf("%s: func %s pc %d selected\n%v succs %v\nforward it was\n%v succs %v",
				how, sels[i].fn.FullName(), sels[i].pc, b, b.Succs, forward[i], forward[i].Succs)
		}
	}
	for i := len(sels) - 1; i >= 0; i-- {
		same("in reverse", i, sels[i].run())
	}

	const workers = 4
	got := make([]*region.Block, len(sels))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(sels); i += workers {
				got[i] = sels[i].run()
			}
		}()
	}
	wg.Wait()
	for i, b := range got {
		same("from 4 goroutines", i, b)
	}
	t.Logf("%d selections", len(sels))
}

// TestSelectAllocatesOnlyTheBlock: a warmed selection allocates the
// Block, which has room for two successors, and the slices it keeps
// (Preconds, EntryStackTypes when the entry stack is not empty, Succs
// when there are more than two), nothing else: at most 3 a selection
// on average over the site's profiling blocks.
func TestSelectAllocatesOnlyTheBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sels := profilingStarts(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, s := range sels {
			s.run()
		}
	})
	per := allocs / float64(len(sels))
	t.Logf("%.2f allocations per selection over %d selections", per, len(sels))
	if per > 3 {
		t.Errorf("a warmed Select performs %.2f allocations, budget 3", per)
	}
}
