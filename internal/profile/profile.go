// Package profile holds the data gathered by profiling translations:
// per-block execution counters, observed control-flow arcs, and
// call-target histograms. The profile-guided region selector and the
// optimizing JIT consume it; the jumpstart subsystem persists it
// across server restarts.
package profile

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TransID identifies one profiling translation (a type-specialized
// basic block).
type TransID int

// The counter slab is a list of fixed-size chunks. Chunks never move
// once allocated, so Inc can run lock-free: it loads the chunk list
// pointer atomically and does an atomic add into the chunk. Only slab
// growth (NewCounter) takes the mutex; the chunk list is copied and
// republished there, never mutated in place.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
)

type chunk [chunkSize]uint64

// Counters is the instrumentation store. The profiling JIT increments
// a unique counter after each translation's type guards, so counter
// values double as both basic-block frequencies and input-type
// distributions (Section 4.1 of the paper). Inc is the hottest
// instrumentation path and is a single atomic add; everything else
// (arcs, histograms) is recorded at block boundaries and stays under
// the mutex. The call graph is bumped by every guest call optimized
// code makes, on every worker, so it is lock-free as well (callRow).
type Counters struct {
	mu   sync.Mutex
	slab atomic.Pointer[[]*chunk]
	n    int // counters allocated (guarded by mu)

	// arcs records observed transfers between profiling translations.
	arcs map[Arc]uint64
	// callTargets histograms callee classes at method-call sites:
	// (funcID, bcPC) -> class name -> count.
	callTargets map[CallSite]map[string]uint64
	// calls is the whole-program dynamic call graph used by function
	// sorting, indexed by caller funcID. Like the counter slab it is
	// copy-on-write: the row list and each row's edge list are
	// republished under mu when they grow and never mutated in place,
	// so AddCall on a known edge is two atomic loads, a short scan and
	// one atomic add.
	calls atomic.Pointer[[]*callRow]
	// propShapes histograms the receiver's object shape at property
	// access sites: (funcID, bcPC) -> shape ID -> count. Shape IDs
	// are process-local (minted in first-touch order by this VM's
	// shape tree), so this table is deliberately excluded from
	// Data/Snapshot/Merge: it never rides jumpstart snapshots or
	// fleet aggregation. Warm-started hosts rebuild shape knowledge
	// through the self-filling inline caches instead.
	propShapes map[CallSite]map[uint32]uint64
}

// Arc is an observed control transfer between translations.
type Arc struct{ From, To TransID }

// CallSite locates a method-call bytecode.
type CallSite struct {
	FuncID int
	PC     int
}

// CallArc is a caller->callee edge in the dynamic call graph.
type CallArc struct{ Caller, Callee int }

// callRow holds one caller's outgoing edges. Callers have few distinct
// callees, so a linear scan beats hashing the arc.
type callRow struct{ edges atomic.Pointer[[]callEdge] }

type callEdge struct {
	callee int
	n      *atomic.Uint64
}

// NewCounters returns an empty store.
func NewCounters() *Counters {
	c := &Counters{
		arcs:        map[Arc]uint64{},
		callTargets: map[CallSite]map[string]uint64{},
		propShapes:  map[CallSite]map[uint32]uint64{},
	}
	empty := []*chunk{}
	c.slab.Store(&empty)
	c.calls.Store(&[]*callRow{})
	return c
}

// NewCounter allocates a fresh counter and returns its ID.
func (c *Counters) NewCounter() TransID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := TransID(c.n)
	need := (c.n >> chunkShift) + 1
	if cur := *c.slab.Load(); len(cur) < need {
		grown := make([]*chunk, need)
		copy(grown, cur)
		for i := len(cur); i < need; i++ {
			grown[i] = new(chunk)
		}
		c.slab.Store(&grown)
	}
	c.n++
	return id
}

// NumCounters returns how many counters have been allocated.
func (c *Counters) NumCounters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Inc bumps a counter. Called from JITed profiling code on every
// translation entry, concurrently across warmup threads, so it must
// not contend on the mutex: one atomic add into the pre-sized slab.
func (c *Counters) Inc(id TransID) {
	slab := *c.slab.Load()
	atomic.AddUint64(&slab[id>>chunkShift][id&(chunkSize-1)], 1)
}

// Add bumps a counter by n (bulk restore path: jumpstart, merging).
// Counters beyond the allocated slab are allocated rather than
// silently dropped, so a bulk load whose ordering diverges from
// counter allocation cannot lose profile data.
func (c *Counters) Add(id TransID, n uint64) {
	if n == 0 || id < 0 {
		return
	}
	slab := *c.slab.Load()
	if int(id>>chunkShift) >= len(slab) {
		c.growTo(id)
		slab = *c.slab.Load()
	}
	atomic.AddUint64(&slab[id>>chunkShift][id&(chunkSize-1)], n)
}

// growTo extends the slab (and the allocated-counter count) to cover
// id, so Count/Snapshot see bulk-loaded counters too.
func (c *Counters) growTo(id TransID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(id) >= c.n {
		c.n = int(id) + 1
	}
	need := (int(id) >> chunkShift) + 1
	if cur := *c.slab.Load(); len(cur) < need {
		grown := make([]*chunk, need)
		copy(grown, cur)
		for i := len(cur); i < need; i++ {
			grown[i] = new(chunk)
		}
		c.slab.Store(&grown)
	}
}

// Count reads a counter.
func (c *Counters) Count(id TransID) uint64 {
	slab := *c.slab.Load()
	if id < 0 || int(id>>chunkShift) >= len(slab) {
		return 0
	}
	return atomic.LoadUint64(&slab[id>>chunkShift][id&(chunkSize-1)])
}

// RecordArc notes a from->to transfer between profiling translations.
func (c *Counters) RecordArc(from, to TransID) { c.AddArc(from, to, 1) }

// AddArc bumps an arc weight by n.
func (c *Counters) AddArc(from, to TransID, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.arcs[Arc{from, to}] += n
	c.mu.Unlock()
}

// ArcCount reads an arc weight.
func (c *Counters) ArcCount(from, to TransID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arcs[Arc{from, to}]
}

// Arcs returns all arcs involving the given translations.
func (c *Counters) Arcs(in map[TransID]bool) map[Arc]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Arc]uint64)
	for a, n := range c.arcs {
		if in[a.From] || in[a.To] {
			out[a] = n
		}
	}
	return out
}

// RecordCallTarget histograms the receiver class at a method call.
func (c *Counters) RecordCallTarget(site CallSite, class string) {
	c.AddCallTarget(site, class, 1)
}

// AddCallTarget bumps a call-site histogram entry by n.
func (c *Counters) AddCallTarget(site CallSite, class string, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	m := c.callTargets[site]
	if m == nil {
		m = map[string]uint64{}
		c.callTargets[site] = m
	}
	m[class] += n
	c.mu.Unlock()
}

// TargetProfile summarizes a call site's receiver distribution.
type TargetProfile struct {
	Total uint64
	// Classes sorted by descending count.
	Classes []ClassCount
}

// ClassCount is one histogram entry.
type ClassCount struct {
	Class string
	Count uint64
}

// CallTargets returns the profile for a site (nil if never observed).
func (c *Counters) CallTargets(site CallSite) *TargetProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.callTargets[site]
	if len(m) == 0 {
		return nil
	}
	tp := &TargetProfile{}
	for cls, n := range m {
		tp.Total += n
		tp.Classes = append(tp.Classes, ClassCount{cls, n})
	}
	sort.Slice(tp.Classes, func(i, j int) bool {
		if tp.Classes[i].Count != tp.Classes[j].Count {
			return tp.Classes[i].Count > tp.Classes[j].Count
		}
		return tp.Classes[i].Class < tp.Classes[j].Class
	})
	return tp
}

// RecordPropShape histograms the receiver shape at a property-access
// site (profiling translations call it; shape 0 = shapeless receiver
// and is recorded too, so the optimizer sees generic-only sites).
func (c *Counters) RecordPropShape(site CallSite, shapeID uint32) {
	c.mu.Lock()
	m := c.propShapes[site]
	if m == nil {
		m = map[uint32]uint64{}
		c.propShapes[site] = m
	}
	m[shapeID]++
	c.mu.Unlock()
}

// ShapeWarmMin is the minimum observation count before a shape
// profile supports monomorphic speculation. Profiling translations
// run only briefly before republish, so the bar is low: a handful of
// observations all agreeing on one shape is strong evidence.
const ShapeWarmMin = 4

// ShapeCount is one shape-histogram entry.
type ShapeCount struct {
	Shape uint32
	Count uint64
}

// ShapeProfile summarizes a property site's receiver-shape
// distribution.
type ShapeProfile struct {
	Total uint64
	// Shapes sorted by descending count (shape ID tiebreak).
	Shapes []ShapeCount
}

// PropShapes returns the shape profile for a site (nil if never
// observed).
func (c *Counters) PropShapes(site CallSite) *ShapeProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.propShapes[site]
	if len(m) == 0 {
		return nil
	}
	sp := &ShapeProfile{}
	for id, n := range m {
		sp.Total += n
		sp.Shapes = append(sp.Shapes, ShapeCount{id, n})
	}
	sort.Slice(sp.Shapes, func(i, j int) bool {
		if sp.Shapes[i].Count != sp.Shapes[j].Count {
			return sp.Shapes[i].Count > sp.Shapes[j].Count
		}
		return sp.Shapes[i].Shape < sp.Shapes[j].Shape
	})
	return sp
}

// RecordCall notes a dynamic caller->callee call.
func (c *Counters) RecordCall(caller, callee int) { c.AddCall(caller, callee, 1) }

// AddCall bumps a call-graph edge by n. Lock-free once the edge exists.
func (c *Counters) AddCall(caller, callee int, n uint64) {
	if n == 0 {
		return
	}
	slot := c.callSlot(caller, callee)
	if slot == nil {
		c.mu.Lock()
		slot = c.newCallSlotLocked(caller, callee)
		c.mu.Unlock()
	}
	slot.Add(n)
}

// callSlot finds the counter of an existing edge, nil if the edge has
// not been seen.
func (c *Counters) callSlot(caller, callee int) *atomic.Uint64 {
	rows := *c.calls.Load()
	if caller >= len(rows) {
		return nil
	}
	for _, e := range *rows[caller].edges.Load() {
		if e.callee == callee {
			return e.n
		}
	}
	return nil
}

// newCallSlotLocked publishes the edge (unless a racing caller just
// did) and returns its counter. Caller holds mu.
func (c *Counters) newCallSlotLocked(caller, callee int) *atomic.Uint64 {
	if slot := c.callSlot(caller, callee); slot != nil {
		return slot
	}
	rows := *c.calls.Load()
	if caller >= len(rows) {
		grown := make([]*callRow, caller+1)
		copy(grown, rows)
		for i := len(rows); i < len(grown); i++ {
			grown[i] = &callRow{}
			grown[i].edges.Store(&[]callEdge{})
		}
		c.calls.Store(&grown)
		rows = grown
	}
	old := *rows[caller].edges.Load()
	edges := make([]callEdge, len(old)+1)
	copy(edges, old)
	slot := new(atomic.Uint64)
	edges[len(old)] = callEdge{callee: callee, n: slot}
	rows[caller].edges.Store(&edges)
	return slot
}

// CallGraph returns the weighted dynamic call graph. Edges keep
// counting while it is read; each weight is one atomic load.
func (c *Counters) CallGraph() map[CallArc]uint64 {
	out := map[CallArc]uint64{}
	for caller, row := range *c.calls.Load() {
		for _, e := range *row.edges.Load() {
			out[CallArc{caller, e.callee}] = e.n.Load()
		}
	}
	return out
}

// Data is a plain-value copy of a Counters store: the unit of profile
// persistence and fleet aggregation. TransIDs in Data refer to the
// translation space of the VM the snapshot was taken from; merging
// Data from different VMs by raw TransID is only meaningful when they
// minted translations identically (the jumpstart package merges by
// stable function identity instead).
type Data struct {
	Counts      []uint64
	Arcs        map[Arc]uint64
	CallTargets map[CallSite]map[string]uint64
	FuncCalls   map[CallArc]uint64
}

// Snapshot copies the full store. Counter reads are atomic, so a
// snapshot taken while profiling threads run is internally consistent
// per counter (no torn values), though counters keep moving.
func (c *Counters) Snapshot() *Data {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &Data{
		Counts:      make([]uint64, c.n),
		Arcs:        make(map[Arc]uint64, len(c.arcs)),
		CallTargets: make(map[CallSite]map[string]uint64, len(c.callTargets)),
		FuncCalls:   c.CallGraph(),
	}
	slab := *c.slab.Load()
	for i := 0; i < c.n; i++ {
		d.Counts[i] = atomic.LoadUint64(&slab[i>>chunkShift][i&(chunkSize-1)])
	}
	for a, n := range c.arcs {
		d.Arcs[a] = n
	}
	for site, m := range c.callTargets {
		cp := make(map[string]uint64, len(m))
		for cls, n := range m {
			cp[cls] = n
		}
		d.CallTargets[site] = cp
	}
	return d
}

// scaleCount applies a merge weight, rounding to nearest.
func scaleCount(v uint64, w float64) uint64 {
	if w == 1 {
		return v
	}
	if w <= 0 {
		return 0
	}
	return uint64(float64(v)*w + 0.5)
}

// Merge folds d into c with the given weight (1.0 = plain sum; <1
// decays the incoming profile, the aggregation rule for combining
// fleet snapshots of different ages). d's TransIDs must refer to c's
// translation space; counters beyond c's slab are allocated.
func (c *Counters) Merge(d *Data, weight float64) {
	for c.NumCounters() < len(d.Counts) {
		c.NewCounter()
	}
	for i, v := range d.Counts {
		c.Add(TransID(i), scaleCount(v, weight))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for a, n := range d.Arcs {
		if s := scaleCount(n, weight); s > 0 {
			c.arcs[a] += s
		}
	}
	for site, m := range d.CallTargets {
		for cls, n := range m {
			s := scaleCount(n, weight)
			if s == 0 {
				continue
			}
			dst := c.callTargets[site]
			if dst == nil {
				dst = map[string]uint64{}
				c.callTargets[site] = dst
			}
			dst[cls] += s
		}
	}
	for a, n := range d.FuncCalls {
		if s := scaleCount(n, weight); s > 0 {
			c.newCallSlotLocked(a.Caller, a.Callee).Add(s)
		}
	}
}
