package region_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/types"
)

// fixedSource supplies constant entry types.
type fixedSource struct {
	locals map[int]types.Type
	stack  map[int]types.Type
}

func (s fixedSource) LocalType(slot int) types.Type {
	if t, ok := s.locals[slot]; ok {
		return t
	}
	return types.TUninit // like a fresh frame
}

func (s fixedSource) StackType(d int) types.Type {
	if t, ok := s.stack[d]; ok {
		return t
	}
	return types.TCell
}

func (fixedSource) PropReadType(int, int, string) types.Type { return types.TInitCell }

func avgPositiveUnit(t *testing.T) *hhbc.Unit {
	t.Helper()
	u, err := core.Compile(`
function avgPositive($arr) {
  $sum = 0;
  $n = 0;
  $size = count($arr);
  for ($i = 0; $i < $size; $i++) {
    $elem = $arr[$i];
    if ($elem > 0) { $sum = $sum + $elem; $n++; }
  }
  if ($n == 0) { throw new Exception("none"); }
  return $sum / $n;
}
echo avgPositive([1,2,3]);`, core.CompileOptions{SkipHHBBC: true})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestTraceletGuardsArrayArg(t *testing.T) {
	u := avgPositiveUnit(t)
	f, _ := u.FuncByName("avgPositive")
	src := fixedSource{locals: map[int]types.Type{0: types.ArrOfKind(types.ArrayPacked)}}
	blk := region.Select(u, f, 0, 0, src, region.ModeLive, 0)
	if blk.NumInstrs == 0 {
		t.Fatal("empty tracelet")
	}
	// The tracelet must guard $arr once count()'s argument needs it.
	found := false
	for _, g := range blk.Preconds {
		if g.Loc.Kind == region.LocLocal && g.Loc.Slot == 0 {
			found = true
			if !g.Type.SubtypeOf(types.TArr) {
				t.Errorf("guard type on $arr = %v", g.Type)
			}
		}
	}
	if !found {
		t.Errorf("no guard on $arr; preconds: %v", blk.Preconds)
	}
}

func TestProfilingModeBreaksAtCalls(t *testing.T) {
	u := avgPositiveUnit(t)
	f, _ := u.FuncByName("avgPositive")
	src := fixedSource{locals: map[int]types.Type{0: types.ArrOfKind(types.ArrayPacked)}}
	blk := region.Select(u, f, 0, 0, src, region.ModeProfiling, 0)
	// The entry block must stop at or before the count() builtin call.
	for pc := blk.Start; pc < blk.End()-1; pc++ {
		if f.Instrs[pc].Op == hhbc.OpFCallBuiltin {
			t.Errorf("profiling block crossed a call at pc %d", pc)
		}
	}
}

func TestTraceletEndsAtUnknownConsumption(t *testing.T) {
	u := avgPositiveUnit(t)
	f, _ := u.FuncByName("avgPositive")
	// Unknown $arr: the selector cannot type count()'s fast path but
	// the block must still terminate with successors.
	src := fixedSource{locals: map[int]types.Type{0: types.TCell}}
	blk := region.Select(u, f, 0, 0, src, region.ModeLive, 0)
	if blk.NumInstrs == 0 {
		t.Fatal("selector made no progress")
	}
	if blk.End() < len(f.Instrs) && len(blk.Succs) == 0 {
		t.Error("non-terminal tracelet has no successors")
	}
}

func TestChainsSortedByWeight(t *testing.T) {
	u := avgPositiveUnit(t)
	f, _ := u.FuncByName("avgPositive")
	counters := profile.NewCounters()
	// Two retranslations of the same pc with different types/weights.
	mk := func(ty types.Type, count uint64) (*region.Block, profile.TransID) {
		src := fixedSource{locals: map[int]types.Type{0: ty}}
		blk := region.Select(u, f, 0, 0, src, region.ModeProfiling, 0)
		blk.ProfCounter = counters.NewCounter()
		for i := uint64(0); i < count; i++ {
			counters.Inc(blk.ProfCounter)
		}
		return blk, blk.ProfCounter
	}
	b1, id1 := mk(types.ArrOfKind(types.ArrayPacked), 10)
	b2, id2 := mk(types.ArrOfKind(types.ArrayMixed), 40)
	g := region.BuildTransCFG([]*region.Block{b1, b2}, []profile.TransID{id1, id2}, counters)
	regions := region.FormRegions(g, region.DefaultFormConfig)
	if len(regions) == 0 {
		t.Fatal("no regions formed")
	}
	d := regions[0]
	for _, chain := range d.Chains {
		if cap(chain) != len(chain) {
			t.Fatalf("chain %v has capacity %d: appending to it would overwrite the next", chain, cap(chain))
		}
	}
	// The chain for pc 0 must put the hotter (mixed, 40) first.
	for _, chain := range d.Chains {
		if d.Blocks[chain[0]].Start == 0 && len(chain) == 2 {
			if d.Weight[chain[0]] < d.Weight[chain[1]] {
				t.Errorf("chain not sorted by weight: %v", chain)
			}
			return
		}
	}
	// If both blocks landed in different regions, chains are trivial;
	// that's acceptable only when the second region exists.
	if len(regions) < 2 {
		t.Error("expected a 2-element chain or 2 regions")
	}
}

func TestGuardRelaxationWidens(t *testing.T) {
	u := avgPositiveUnit(t)
	f, _ := u.FuncByName("avgPositive")
	counters := profile.NewCounters()
	// Countness-constrained guard with straddling profile: relaxes.
	blk := region.Select(u, f, 0, 0,
		fixedSource{locals: map[int]types.Type{0: types.ArrOfKind(types.ArrayPacked)}},
		region.ModeProfiling, 0)
	blk.ProfCounter = counters.NewCounter()
	d := region.NewDesc(blk)
	g := region.BuildTransCFG([]*region.Block{blk}, []profile.TransID{blk.ProfCounter}, counters)

	var before []region.Guard
	before = append(before, blk.Preconds...)
	region.Relax(d, g, counters, region.DefaultRelaxConfig)
	for i, gd := range blk.Preconds {
		if gd.Constraint >= region.ConSpecific {
			// Specific+ guards must be untouched.
			if gd.Type != before[i].Type {
				t.Errorf("relaxation changed a %v guard: %v -> %v",
					gd.Constraint, before[i].Type, gd.Type)
			}
		} else if !before[i].Type.SubtypeOf(gd.Type) {
			t.Errorf("relaxation narrowed a guard: %v -> %v", before[i].Type, gd.Type)
		}
	}
}

func TestConstraintLattice(t *testing.T) {
	// Table 1 ordering and satisfaction.
	if !region.ConGeneric.Satisfied(types.TCell) {
		t.Error("Generic should accept anything")
	}
	if region.ConSpecific.Satisfied(types.TNum) {
		t.Error("Specific should reject Num")
	}
	if !region.ConSpecific.Satisfied(types.TInt) {
		t.Error("Specific should accept Int")
	}
	if !region.ConCountness.Satisfied(types.TUncounted) {
		t.Error("Countness should accept Uncounted")
	}
	if region.ConSpecialized.Satisfied(types.TArr) {
		t.Error("Specialized should reject unspecialized Arr")
	}
	if !region.ConSpecialized.Satisfied(types.ArrOfKind(types.ArrayPacked)) {
		t.Error("Specialized should accept Arr=Packed")
	}
	if region.ConCountness.Stronger(region.ConSpecific) != region.ConSpecific {
		t.Error("Stronger picks the wrong side")
	}
}

func TestRelaxedType(t *testing.T) {
	if got := region.ConGeneric.RelaxedType(types.TInt); got != types.TCell {
		t.Errorf("Generic relaxes to %v", got)
	}
	if got := region.ConCountness.RelaxedType(types.TInt); got != types.TUncounted {
		t.Errorf("Countness(Int) relaxes to %v", got)
	}
	got := region.ConCountness.RelaxedType(types.TStr)
	if got != types.TStr {
		t.Errorf("Countness(Str) relaxes to %v (counted kinds keep their kind)", got)
	}
}

// TestLoweringOrder: reverse post-order over arcs and chain
// fall-through — every forward edge's source precedes its target, a
// chain member follows the member whose guards fall through to it, and
// blocks the walk does not reach come last.
func TestLoweringOrder(t *testing.T) {
	// 0 -> 1 (loop header) -> {2, 3}; 2 and 4 retranslate one address
	// (2 first); 2 -> 1 and 4 -> 1 are back-edges; 3 exits; 5 is
	// unreachable.
	d := &region.Desc{
		Blocks: make([]*region.Block, 6),
		Arcs:   [][]int{0: {1}, 1: {3, 4}, 2: {1}, 4: {1}, 5: nil},
		Chains: [][]int{{0}, {1}, {2, 4}, {3}, {5}},
	}
	order := d.LoweringOrder(nil)
	if len(order) != 6 {
		t.Fatalf("order %v does not list every block once", order)
	}
	pos := make([]int, 6)
	for i, b := range order {
		pos[b] = i
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("block %d must be lowered before block %d: %v", e[0], e[1], order)
		}
	}
	if order[0] != 0 || order[5] != 5 {
		t.Errorf("entry first, unreachable last: %v", order)
	}
}
