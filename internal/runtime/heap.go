package runtime

import "repro/internal/types"

// Heap tracks guest allocation and reference-counting activity. PHP's
// refcounting is observable (destructors fire at the exact point the
// last reference dies; COW copies happen at refcount>1), so the heap
// exposes counters that the tests and the RCE-correctness checks use.
type Heap struct {
	// IncRefs and DecRefs count executed refcount operations — the
	// quantity the RCE pass exists to reduce.
	IncRefs uint64
	DecRefs uint64
	// Destructs counts destructor invocations; CowCopies counts
	// copy-on-write array clones; Frees counts deallocations.
	Destructs uint64
	CowCopies uint64
	Frees     uint64
	LiveObjs  int64

	// OnDestruct runs a guest destructor for obj. Set by the VM
	// (destructors are guest code and need the execution engine).
	OnDestruct func(obj *Object)
}

// NewHeap returns a fresh heap.
func NewHeap() *Heap { return &Heap{} }

// incRefVal bumps a refcount without heap accounting (used by clone,
// which is itself accounted as a COW copy).
func incRefVal(v Value) {
	switch v.Kind {
	case types.KStr:
		if !v.AsStr().static {
			v.AsStr().refs++
		}
	case types.KArr:
		v.AsArr().refs++
	case types.KObj:
		v.AsObj().refs++
	}
}

// IncRef increments the reference count of v if counted.
func (h *Heap) IncRef(v Value) {
	switch v.Kind {
	case types.KStr:
		if v.AsStr().static {
			return
		}
		h.IncRefs++
		v.AsStr().refs++
	case types.KArr:
		h.IncRefs++
		v.AsArr().refs++
	case types.KObj:
		h.IncRefs++
		v.AsObj().refs++
	}
}

// DecRef decrements the reference count of v, freeing (and running
// destructors) when it reaches zero.
func (h *Heap) DecRef(v Value) {
	switch v.Kind {
	case types.KStr:
		if v.AsStr().static {
			return
		}
		h.DecRefs++
		v.AsStr().refs--
		if v.AsStr().refs == 0 {
			h.Frees++
		}
	case types.KArr:
		h.DecRefs++
		h.decArrayRef(v.AsArr())
	case types.KObj:
		h.DecRefs++
		v.AsObj().refs--
		if v.AsObj().refs == 0 {
			h.destroyObject(v.AsObj())
		}
	}
}

// decArrayRef releases one reference to a without counting a DecRef
// op (callers that model a guest DecRef instruction count it).
func (h *Heap) decArrayRef(a *Array) {
	a.refs--
	if a.refs > 0 {
		return
	}
	h.Frees++
	if a.IsPacked() {
		for _, e := range a.elems {
			h.DecRef(e)
		}
		a.elems = nil
		return
	}
	for _, e := range a.entries {
		if !e.dead {
			h.DecRef(e.val)
		}
	}
	a.entries = nil
	a.mixed = nil
}

func (h *Heap) destroyObject(o *Object) {
	h.LiveObjs--
	h.Frees++
	if o.Class.HasDtor && h.OnDestruct != nil && !o.destructed {
		o.destructed = true
		// Keep the object alive during its destructor, as PHP does.
		o.refs = 1
		h.Destructs++
		h.OnDestruct(o)
		o.refs = 0
	}
	for _, p := range o.Props {
		h.DecRef(p)
	}
	o.Props = nil
}

// Stats is a snapshot of heap counters.
type Stats struct {
	IncRefs, DecRefs, Destructs, CowCopies, Frees uint64
	LiveObjs                                      int64
}

// Snapshot returns the current counters.
func (h *Heap) Snapshot() Stats {
	return Stats{
		IncRefs: h.IncRefs, DecRefs: h.DecRefs, Destructs: h.Destructs,
		CowCopies: h.CowCopies, Frees: h.Frees, LiveObjs: h.LiveObjs,
	}
}
