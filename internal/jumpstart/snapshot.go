// Package jumpstart implements profile persistence: a versioned,
// checksummed binary snapshot of everything the profiling JIT learns
// (block counters, arcs, call-target histograms, the dynamic call
// graph), keyed by stable function identity (full name + bytecode
// hash). A restarted server loads a snapshot, re-mints profiling
// translations from the recorded guard sets, remaps the saved counts
// onto them, and fires global retranslation immediately — skipping
// the minutes-long live profiling phase of the paper's Figure 9.
// Functions whose bytecode hash no longer matches are rejected
// per-function and fall back to normal profiling.
package jumpstart

import "repro/internal/types"

// Snapshot is the persisted profile of one VM.
type Snapshot struct {
	// Funcs holds per-function profiles, sorted by (Name, Hash) in
	// canonical snapshots (Encode canonicalizes).
	Funcs []FuncProfile
	// CallGraph is the dynamic caller->callee graph; indices refer to
	// Funcs.
	CallGraph []CallEdge
}

// FuncProfile is the profile of one function, identified by name and
// bytecode hash rather than by the unit-local function ID, so it
// survives recompilation of changed source.
type FuncProfile struct {
	Name string
	// Hash is hhbc.Func.BytecodeHash at snapshot time. Loaders must
	// reject the function when the hash of the current bytecode
	// differs.
	Hash uint64
	// Trans are the function's profiling translations.
	Trans []TransProfile
	// Arcs are control transfers between this function's profiling
	// translations; From/To index Trans.
	Arcs []ArcWeight
	// CallTargets are receiver-class histograms at this function's
	// method-call sites.
	CallTargets []CallTarget
}

// TransProfile describes one profiling translation precisely enough
// to re-mint it on a fresh VM: where it starts, the entry stack
// shape, and the guarded entry types its code specialized on.
type TransProfile struct {
	PC         int
	EntryDepth int
	// EntryStackTypes are the observed entry types of the eval-stack
	// slots (len == EntryDepth).
	EntryStackTypes []TypeRepr
	// Guards are the translation's type preconditions.
	Guards []GuardRepr
	// Count is the block's execution count.
	Count uint64
}

// GuardRepr is a serialized region guard location + type.
type GuardRepr struct {
	// Stack selects an eval-stack slot; otherwise Slot is a local.
	Stack bool
	Slot  int
	Type  TypeRepr
}

// TypeRepr is the serialized form of a types.Type.
type TypeRepr struct {
	Kind    uint16
	ArrKind uint8
	Class   string
	Exact   bool
}

// ReprOf converts a lattice type to its serialized form.
func ReprOf(t types.Type) TypeRepr {
	cls, exact := t.Class()
	return TypeRepr{
		Kind:    uint16(t.Kind()),
		ArrKind: uint8(t.ArrayKind()),
		Class:   cls,
		Exact:   exact,
	}
}

// Type reconstructs the lattice type.
func (r TypeRepr) Type() types.Type {
	k := types.Kind(r.Kind)
	if k == types.KObj && r.Class != "" {
		return types.ObjOfClass(r.Class, r.Exact)
	}
	if k == types.KArr && types.ArrayKind(r.ArrKind) != types.ArrayAny {
		return types.ArrOfKind(types.ArrayKind(r.ArrKind))
	}
	return types.FromKind(k)
}

// ArcWeight is a weighted intra-function translation arc.
type ArcWeight struct {
	From, To int
	Weight   uint64
}

// CallTarget is one receiver-class histogram entry at a call site.
type CallTarget struct {
	PC    int
	Class string
	Count uint64
}

// CallEdge is a weighted call-graph edge between snapshot functions.
type CallEdge struct {
	Caller, Callee int
	Weight         uint64
}

// NumTrans totals the profiling translations across all functions.
func (s *Snapshot) NumTrans() int {
	n := 0
	for i := range s.Funcs {
		n += len(s.Funcs[i].Trans)
	}
	return n
}

// TotalCount sums all block counters.
func (s *Snapshot) TotalCount() uint64 {
	var n uint64
	for i := range s.Funcs {
		n += s.Funcs[i].TotalCount()
	}
	return n
}

// TotalCount sums the function's block counters — its profiled
// hotness.
func (f *FuncProfile) TotalCount() uint64 {
	var n uint64
	for _, tr := range f.Trans {
		n += tr.Count
	}
	return n
}
