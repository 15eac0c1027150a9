package profile_test

import (
	"math/rand"
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
	arcs := 0
	c.EachArc(a, func(to profile.TransID, n uint64) {
		if arcs++; to != b || n != 2 {
			t.Errorf("arc %d->%d weighs %d, want %d->%d weighing 2", a, to, n, a, b)
		}
	})
	if arcs != 1 {
		t.Errorf("%d arcs leave %d, want 1", arcs, a)
	}
}

// TestArcsLeavingMatchFullScan holds the arc rows to a plain model:
// random arcs recorded one at a time and in bulk — repeated, self-arcs,
// sources past every row seen so far — and then, for random sets of
// sources, EachArc over them yields exactly the snapshot's arcs whose
// source is in the set, and ArcCount agrees with the snapshot on every
// pair.
func TestArcsLeavingMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := profile.NewCounters()
	model := map[profile.Arc]uint64{}
	const ids = 60
	for i := 0; i < 2000; i++ {
		// IDs grow with i, so many arcs land past the current rows.
		hi := 1 + i*ids/2000
		from, to := profile.TransID(rng.Intn(hi)), profile.TransID(rng.Intn(ids))
		switch rng.Intn(4) {
		case 0:
			to = from
		case 1:
			from = profile.TransID(hi + rng.Intn(ids))
		}
		if rng.Intn(2) == 0 {
			c.RecordArc(from, to)
			model[profile.Arc{From: from, To: to}]++
		} else {
			n := uint64(rng.Intn(5))
			c.AddArc(from, to, n)
			if n > 0 {
				model[profile.Arc{From: from, To: to}] += n
			}
		}
	}
	all := c.Snapshot().Arcs
	if !reflect.DeepEqual(all, model) {
		t.Fatalf("snapshot holds %d arcs, the model %d", len(all), len(model))
	}
	maxID := profile.TransID(2 * ids)
	for trial := 0; trial < 200; trial++ {
		in := map[profile.TransID]bool{}
		for k := rng.Intn(8); k > 0; k-- {
			in[profile.TransID(rng.Intn(int(maxID)+2))-1] = true
		}
		want := map[profile.Arc]uint64{}
		for a, n := range all {
			if in[a.From] {
				want[a] = n
			}
		}
		got := map[profile.Arc]uint64{}
		for from := range in {
			c.EachArc(from, func(to profile.TransID, n uint64) {
				if _, twice := got[profile.Arc{From: from, To: to}]; twice {
					t.Errorf("EachArc(%d) yields %d twice", from, to)
				}
				got[profile.Arc{From: from, To: to}] = n
			})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EachArc over %v = %v, want %v", in, got, want)
		}
	}
	for from := profile.TransID(-1); from <= maxID+1; from++ {
		for to := profile.TransID(-1); to <= maxID+1; to++ {
			if got, want := c.ArcCount(from, to), all[profile.Arc{From: from, To: to}]; got != want {
				t.Errorf("ArcCount(%d, %d) = %d, want %d", from, to, got, want)
			}
		}
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

// TestSnapshotIsACopy: a snapshot keeps the counts, arcs, call targets
// and call graph as they were when it was taken.
func TestSnapshotIsACopy(t *testing.T) {
	a := profile.NewCounters()
	i0 := a.NewCounter()
	i1 := a.NewCounter()
	for i := 0; i < 10; i++ {
		a.Inc(i0)
	}
	a.Inc(i1)
	a.RecordArc(i0, i1)
	site := profile.CallSite{FuncID: 1, PC: 2}
	a.RecordCallTarget(site, "C")
	a.RecordCall(1, 2)

	d := a.Snapshot()
	a.Inc(i0)
	a.RecordArc(i0, i1)
	a.RecordCallTarget(site, "C")
	a.RecordCall(1, 2)
	if d.Counts[i0] != 10 || d.Counts[i1] != 1 {
		t.Errorf("snapshot counts = %v, want [10 1]", d.Counts)
	}
	if n := d.Arcs[profile.Arc{From: i0, To: i1}]; n != 1 {
		t.Errorf("snapshot arc = %d, want 1", n)
	}
	if n := d.CallTargets[site]["C"]; n != 1 {
		t.Errorf("snapshot call target = %d, want 1", n)
	}
	if n := d.FuncCalls[profile.CallArc{Caller: 1, Callee: 2}]; n != 1 {
		t.Errorf("snapshot call graph = %d, want 1", n)
	}
}
