package jit

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/region"
	"repro/internal/types"
)

// TestCloneBlocksCopiesAreWindows: the copies cloneBlocks makes equal
// the originals and share one backing array per field; writing a copy's
// guard leaves the original alone, and appending to one copy's slice
// leaves every other copy and every original as it was.
func TestCloneBlocksCopiesAreWindows(t *testing.T) {
	guard := func(slot int, ty types.Type) region.Guard {
		return region.Guard{Loc: region.Loc{Kind: region.LocLocal, Slot: slot}, Type: ty}
	}
	orig := []*region.Block{
		{Start: 0, Preconds: []region.Guard{guard(0, types.TInt), guard(1, types.TStr)},
			EntryStackTypes: []types.Type{types.TInt}, Succs: []int{4, 9}},
		{Start: 4, Succs: []int{9}},
		{Start: 9, Preconds: []region.Guard{guard(2, types.TDbl)},
			EntryStackTypes: []types.Type{types.TDbl, types.TBool}},
	}
	snapshot := func(bs []*region.Block) []region.Block {
		out := make([]region.Block, len(bs))
		for i, b := range bs {
			out[i] = *b
			out[i].Preconds = slices.Clone(b.Preconds)
			out[i].EntryStackTypes = slices.Clone(b.EntryStackTypes)
			out[i].Succs = slices.Clone(b.Succs)
		}
		return out
	}
	show := func(b *region.Block) string { // region.Block's String wants a Func
		return fmt.Sprintf("pc %d guards %v stack %v succs %v", b.Start, b.Preconds, b.EntryStackTypes, b.Succs)
	}
	same := func(a *region.Block, b region.Block) bool {
		return a.Start == b.Start && slices.Equal(a.Preconds, b.Preconds) &&
			slices.Equal(a.EntryStackTypes, b.EntryStackTypes) && slices.Equal(a.Succs, b.Succs)
	}
	was := snapshot(orig)
	cp := cloneBlocks(orig)
	for i := range orig {
		if !same(cp[i], was[i]) || cp[i] == orig[i] {
			t.Fatalf("copy %d is %s, want a copy of %s", i, show(cp[i]), show(orig[i]))
		}
	}
	cp[0].Preconds[0].Type = types.TCell // what relaxation does
	if orig[0].Preconds[0].Type != types.TInt {
		t.Fatal("widening a copy's guard widened the original's")
	}
	cp[0].Preconds[0].Type = types.TInt
	cps := snapshot(cp)
	for i, b := range cp {
		b.Preconds = append(b.Preconds, guard(7, types.TNull))
		b.EntryStackTypes = append(b.EntryStackTypes, types.TNull)
		b.Succs = append(b.Succs, 99)
		for j := range cp {
			if j != i && !same(cp[j], cps[j]) {
				t.Fatalf("appending to copy %d changed copy %d: %s", i, j, show(cp[j]))
			}
		}
		for j := range orig {
			if !same(orig[j], was[j]) {
				t.Fatalf("appending to copy %d changed original %d: %s", i, j, show(orig[j]))
			}
		}
		*b = cps[i]
	}
}
