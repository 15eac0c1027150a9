package profile_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/profile"
)

func TestCountersAndArcs(t *testing.T) {
	c := profile.NewCounters()
	a := c.NewCounter()
	b := c.NewCounter()
	for i := 0; i < 5; i++ {
		c.Inc(a)
	}
	c.Inc(b)
	if c.Count(a) != 5 || c.Count(b) != 1 {
		t.Errorf("counts: %d %d", c.Count(a), c.Count(b))
	}
	c.RecordArc(a, b)
	c.RecordArc(a, b)
	if c.ArcCount(a, b) != 2 {
		t.Errorf("arc count = %d", c.ArcCount(a, b))
	}
	arcs := c.Arcs(map[profile.TransID]bool{a: true})
	if len(arcs) != 1 {
		t.Errorf("arcs = %v", arcs)
	}
}

func TestCallTargetHistogram(t *testing.T) {
	c := profile.NewCounters()
	site := profile.CallSite{FuncID: 3, PC: 17}
	for i := 0; i < 9; i++ {
		c.RecordCallTarget(site, "Hot")
	}
	c.RecordCallTarget(site, "Cold")
	tp := c.CallTargets(site)
	if tp == nil || tp.Total != 10 {
		t.Fatalf("profile = %+v", tp)
	}
	if tp.Classes[0].Class != "Hot" || tp.Classes[0].Count != 9 {
		t.Errorf("dominant class wrong: %+v", tp.Classes)
	}
	if c.CallTargets(profile.CallSite{FuncID: 9, PC: 9}) != nil {
		t.Error("unknown site should have nil profile")
	}
}

func TestCallGraph(t *testing.T) {
	c := profile.NewCounters()
	c.RecordCall(1, 2)
	c.RecordCall(1, 2)
	c.RecordCall(2, 3)
	g := c.CallGraph()
	if g[profile.CallArc{Caller: 1, Callee: 2}] != 2 {
		t.Errorf("call graph: %v", g)
	}
	if len(g) != 2 {
		t.Errorf("graph size = %d", len(g))
	}
}

// TestConcurrentRecordCallSumsExactly: optimized code records a call
// arc on every guest call, from every worker at once. Each worker
// starts with arcs nobody has published yet (so edge and row
// publication race with each other and with readers) and then stays on
// the lock-free path; no increment may be lost, and a concurrent
// CallGraph/Snapshot must never see a torn table.
func TestConcurrentRecordCallSumsExactly(t *testing.T) {
	c := profile.NewCounters()
	const workers, calls, callers, callees = 8, 4000, 12, 5
	// Descending callers first: the row list grows under concurrent
	// readers.
	arc := func(w, i int) (caller, callee int) {
		return callers - 1 - (i+w)%callers, (i / callers) % callees
	}
	want := map[profile.CallArc]uint64{}
	for w := 0; w < workers; w++ {
		for i := 0; i < calls; i++ {
			caller, callee := arc(w, i)
			want[profile.CallArc{Caller: caller, Callee: callee}]++
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				c.RecordCall(arc(w, i))
				if i%1000 == 0 {
					_ = c.CallGraph()
					_ = c.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if g := c.CallGraph(); !reflect.DeepEqual(g, want) {
		t.Errorf("call graph after %d workers x %d calls:\n got %v\nwant %v", workers, calls, g, want)
	}
	if got := c.Snapshot().FuncCalls; !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot call graph differs:\n got %v\nwant %v", got, want)
	}
}

// TestConcurrentIncAndGrowth hammers Inc from many goroutines while
// the slab keeps growing; run under -race this checks that the
// lock-free increment path never races with slab growth or snapshots.
func TestConcurrentIncAndGrowth(t *testing.T) {
	c := profile.NewCounters()
	const workers = 8
	const perWorker = 5000
	ids := make([]profile.TransID, workers)
	for i := range ids {
		ids[i] = c.NewCounter()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id profile.TransID) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(id)
			}
		}(ids[w])
	}
	// Concurrent growth and snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			c.NewCounter()
			if i%500 == 0 {
				c.Snapshot()
			}
		}
	}()
	wg.Wait()
	for _, id := range ids {
		if got := c.Count(id); got != perWorker {
			t.Errorf("counter %d = %d, want %d", id, got, perWorker)
		}
	}
}

// TestAddGrowsSlab is the regression test for the bulk-restore path:
// Add to a counter id beyond the allocated slab must grow the slab
// and record the value, not silently drop it. (Jumpstart restores
// counters in snapshot order, which can run ahead of NewCounter
// allocation on the restoring side.)
func TestAddGrowsSlab(t *testing.T) {
	c := profile.NewCounters()
	const far = profile.TransID(5000) // well past any allocated chunk
	c.Add(far, 7)
	if got := c.Count(far); got != 7 {
		t.Errorf("Count(%d) = %d, want 7 — Add dropped an out-of-slab counter", far, got)
	}
	if n := c.NumCounters(); n < int(far)+1 {
		t.Errorf("NumCounters = %d, want >= %d after growth", n, far+1)
	}
	d := c.Snapshot()
	if d.Counts[far] != 7 {
		t.Errorf("snapshot missing grown counter: %v", d.Counts[far])
	}
	// Existing counters still work after growth.
	a := c.NewCounter()
	c.Inc(a)
	if c.Count(a) != 1 {
		t.Errorf("post-growth counter = %d, want 1", c.Count(a))
	}
	// Negative and zero adds are ignored, not panics.
	c.Add(-1, 5)
	c.Add(far, 0)
	if got := c.Count(far); got != 7 {
		t.Errorf("zero add changed counter: %d", got)
	}
}

func TestSnapshotMergeWeighted(t *testing.T) {
	a := profile.NewCounters()
	i0 := a.NewCounter()
	i1 := a.NewCounter()
	for i := 0; i < 10; i++ {
		a.Inc(i0)
	}
	a.Inc(i1)
	a.RecordArc(i0, i1)
	a.RecordCallTarget(profile.CallSite{FuncID: 1, PC: 2}, "C")
	a.RecordCall(1, 2)

	d := a.Snapshot()
	// The snapshot is a copy: further increments don't affect it.
	a.Inc(i0)
	if d.Counts[i0] != 10 {
		t.Fatalf("snapshot count = %d, want 10", d.Counts[i0])
	}

	b := profile.NewCounters()
	b.Merge(d, 0.5)
	if got := b.Count(i0); got != 5 {
		t.Errorf("merged count = %d, want 5", got)
	}
	if got := b.ArcCount(i0, i1); got != 1 {
		t.Errorf("merged arc = %d, want 1 (0.5 rounds up)", got)
	}
	tp := b.CallTargets(profile.CallSite{FuncID: 1, PC: 2})
	if tp == nil || tp.Total != 1 {
		t.Errorf("merged call targets = %+v", tp)
	}
	if g := b.CallGraph(); g[profile.CallArc{Caller: 1, Callee: 2}] != 1 {
		t.Errorf("merged call graph = %v", g)
	}

	// Merging twice at weight 1 doubles.
	b.Merge(d, 1)
	if got := b.Count(i0); got != 15 {
		t.Errorf("second merge count = %d, want 15", got)
	}
}
