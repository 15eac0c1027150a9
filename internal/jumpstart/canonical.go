package jumpstart

import (
	"fmt"
	"sort"
	"strings"
)

// transKey canonically identifies a translation within a function:
// its entry pc, entry stack shape and guards.
func transKey(tr *TransProfile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d", tr.PC, tr.EntryDepth)
	for _, t := range tr.EntryStackTypes {
		fmt.Fprintf(&sb, "|e%d,%d,%s,%v", t.Kind, t.ArrKind, t.Class, t.Exact)
	}
	for _, g := range tr.Guards {
		fmt.Fprintf(&sb, "|g%v,%d,%d,%d,%s,%v",
			g.Stack, g.Slot, g.Type.Kind, g.Type.ArrKind, g.Type.Class, g.Type.Exact)
	}
	return sb.String()
}

// sorted returns the indexes 0..n-1 in less's order, and for each old
// index its position in that order.
func sorted(n int, less func(a, b int) bool) (order, pos []int) {
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return less(order[i], order[j]) })
	pos = make([]int, n)
	for i, o := range order {
		pos[o] = i
	}
	return order, pos
}

// Canonicalize returns a copy of s in canonical order: functions by
// (Name, Hash), each function's translations by key, and arcs, call
// targets and call-graph edges by their fields, with arc and edge
// endpoints renumbered to match. A profile the VM recorded in any order
// canonicalizes to the same snapshot, which makes Encode deterministic.
// The copy shares the translations' entry types and guards with s.
func Canonicalize(s *Snapshot) *Snapshot {
	forder, fpos := sorted(len(s.Funcs), func(a, b int) bool {
		x, y := &s.Funcs[a], &s.Funcs[b]
		return x.Name < y.Name || x.Name == y.Name && x.Hash < y.Hash
	})
	out := &Snapshot{Funcs: make([]FuncProfile, 0, len(s.Funcs))}
	for _, fi := range forder {
		f := &s.Funcs[fi]
		keys := make([]string, len(f.Trans))
		for i := range f.Trans {
			keys[i] = transKey(&f.Trans[i])
		}
		torder, tpos := sorted(len(f.Trans), func(a, b int) bool { return keys[a] < keys[b] })
		fp := FuncProfile{Name: f.Name, Hash: f.Hash}
		for _, ti := range torder {
			fp.Trans = append(fp.Trans, f.Trans[ti])
		}
		for _, a := range f.Arcs {
			fp.Arcs = append(fp.Arcs, ArcWeight{From: tpos[a.From], To: tpos[a.To], Weight: a.Weight})
		}
		sort.Slice(fp.Arcs, func(i, j int) bool {
			x, y := fp.Arcs[i], fp.Arcs[j]
			if x.From != y.From {
				return x.From < y.From
			}
			return x.To < y.To || x.To == y.To && x.Weight < y.Weight
		})
		fp.CallTargets = append(fp.CallTargets, f.CallTargets...)
		sort.Slice(fp.CallTargets, func(i, j int) bool {
			x, y := fp.CallTargets[i], fp.CallTargets[j]
			if x.PC != y.PC {
				return x.PC < y.PC
			}
			return x.Class < y.Class || x.Class == y.Class && x.Count < y.Count
		})
		out.Funcs = append(out.Funcs, fp)
	}
	for _, e := range s.CallGraph {
		out.CallGraph = append(out.CallGraph, CallEdge{Caller: fpos[e.Caller], Callee: fpos[e.Callee], Weight: e.Weight})
	}
	sort.Slice(out.CallGraph, func(i, j int) bool {
		x, y := out.CallGraph[i], out.CallGraph[j]
		if x.Caller != y.Caller {
			return x.Caller < y.Caller
		}
		return x.Callee < y.Callee || x.Callee == y.Callee && x.Weight < y.Weight
	})
	return out
}
