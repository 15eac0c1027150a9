package jit

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
)

// indexJIT is a JIT over a unit of n empty functions: enough to size
// the index, which is all these tests touch.
func indexJIT(n int) *JIT {
	env := &interp.Env{Unit: &hhbc.Unit{Funcs: make([]*hhbc.Func, n)}}
	return New(Config{Mode: ModeTracelet}, env, &machine.Meter{})
}

func fakeTranslation(fn, pc, depth int) *Translation {
	return &Translation{FuncID: fn, PC: pc, Kind: ModeTracelet, EntryDepth: depth}
}

// TestInstallCostIsPerFunction: publishing a translation copies no
// other function's chains, and within its function no other pc's.
// Installing into a fresh function allocates about as much beside 2,000
// published translations as beside 10.
func TestInstallCostIsPerFunction(t *testing.T) {
	const spread, fresh = 100, 64
	installBytes := func(published int) float64 {
		j := indexJIT(spread + fresh)
		j.mu.Lock()
		defer j.mu.Unlock()
		for i := 0; i < published; i++ {
			j.installLocked(fakeTranslation(i%spread, i/spread, 0))
		}
		last := make([]*Translation, fresh)
		for i := range last {
			last[i] = fakeTranslation(spread+i, 0, 0)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for _, tr := range last {
			j.installLocked(tr)
		}
		goruntime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / fresh
	}
	small, large := installBytes(10), installBytes(2000)
	t.Logf("bytes per install into a fresh function: %.0f beside 10 translations, %.0f beside 2,000", small, large)
	if large > 2*small {
		t.Errorf("an install beside 2,000 translations allocates %.0f bytes, beside 10 %.0f: more than 2x", large, small)
	}

	// Within one function, an install copies no other chain: at a new pc
	// past 500 published ones it allocates what it does past 5, the one
	// chain that grows.
	const n = 50
	within := func(published int) (objects, bytes float64) {
		f := &hhbc.Func{Instrs: make([]hhbc.Instr, 1000)}
		env := &interp.Env{Unit: &hhbc.Unit{Funcs: []*hhbc.Func{f}}}
		j := New(Config{Mode: ModeTracelet}, env, &machine.Meter{})
		j.mu.Lock()
		defer j.mu.Unlock()
		for pc := 0; pc < published; pc++ {
			j.installLocked(fakeTranslation(0, pc, 0))
		}
		next := make([]*Translation, n)
		for i := range next {
			next[i] = fakeTranslation(0, published+i, 0)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for _, tr := range next {
			j.installLocked(tr)
		}
		goruntime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	fewObjs, fewBytes := within(5)
	manyObjs, manyBytes := within(500)
	t.Logf("per install at a new pc of one function: %.2f objects, %.0f bytes past 5 pcs; %.2f, %.0f past 500",
		fewObjs, fewBytes, manyObjs, manyBytes)
	if manyBytes > fewBytes || manyObjs > 1 || fewObjs > 1 {
		t.Errorf("an install at a new pc allocates %.2f objects, %.0f bytes past 500 pcs and %.2f, %.0f past 5: want at most one object, no more past 500",
			manyObjs, manyBytes, fewObjs, fewBytes)
	}
}

// TestConcurrentInstallAndUnpublish: readers match frames at three
// addresses in two functions while one writer installs at all three
// and keeps invalidating one, and a second writer installs at new
// addresses between and past them, growing the function's table of
// chains. Every chain a reader loads must be a run of consecutive
// installs at its own address — never one with a translation missing,
// repeated or from elsewhere — and every match must fit the frame.
func TestConcurrentInstallAndUnpublish(t *testing.T) {
	const installs, readers, invalidateEvery = 610, 4, 25
	j := indexJIT(2)
	keys := []transKey{{0, 0}, {1, 5}, {1, 2}, {1, 3}, {1, 4}, {1, 9}, {1, 40}}
	const inserted = 3 // keys from here on are the second writer's
	hist := map[transKey][]*Translation{}
	seq := map[*Translation]int{}
	for _, key := range keys {
		for n := 0; n < installs; n++ {
			tr := fakeTranslation(key.fn, key.pc, n%2)
			seq[tr] = n
			hist[key] = append(hist[key], tr)
		}
	}
	check := func(key transKey, chain []*Translation) bool {
		if len(chain) == 0 {
			return true
		}
		s, ok := seq[chain[0]]
		if !ok || hist[key][s] != chain[0] || s+len(chain) > installs {
			return false
		}
		for i, tr := range chain {
			if hist[key][s+i] != tr {
				return false
			}
		}
		return true
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for _, key := range keys {
					fr := &interp.Frame{Fn: &hhbc.Func{ID: key.fn}, PC: key.pc}
					if tr := j.Match(fr, nil, false); tr != nil &&
						(tr.FuncID != key.fn || tr.PC != key.pc || tr.EntryDepth != 0) {
						t.Errorf("Match at %v returned a translation at (%d, %d), depth %d",
							key, tr.FuncID, tr.PC, tr.EntryDepth)
						return
					}
					if chain := j.trans.Load().chain(key); !check(key, chain) {
						t.Errorf("torn chain at %v: %d translations, not one published run", key, len(chain))
						return
					}
				}
			}
		}()
	}
	var inserter sync.WaitGroup
	inserter.Add(1)
	go func() {
		defer inserter.Done()
		for n := 0; n < installs; n++ {
			for _, key := range keys[inserted:] {
				j.mu.Lock()
				j.installLocked(hist[key][n])
				j.mu.Unlock()
			}
		}
	}()
	invalidated := 0
	for n := 0; n < installs; n++ {
		for _, key := range keys[:inserted] {
			j.mu.Lock()
			j.installLocked(hist[key][n])
			j.mu.Unlock()
		}
		if n%invalidateEvery == invalidateEvery-1 {
			if got := j.Invalidate(keys[0].fn, keys[0].pc); got != invalidateEvery {
				t.Errorf("Invalidate removed %d translations, want %d", got, invalidateEvery)
			}
			invalidated = n + 1
		}
	}
	inserter.Wait()
	done.Store(true)
	wg.Wait()

	idx := j.trans.Load()
	if got := idx.chain(keys[0]); len(got) != installs-invalidated || !check(keys[0], got) {
		t.Errorf("invalidated address ends with %d translations, want the %d installed since", len(got), installs-invalidated)
	}
	for _, key := range keys[1:] {
		if got := idx.chain(key); len(got) != installs || !check(key, got) {
			t.Errorf("%v ends with %d translations, want all %d in install order", key, len(got), installs)
		}
	}
}
