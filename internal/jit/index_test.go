package jit

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
)

// indexJIT is a JIT over a unit of n empty functions: enough to size
// the index, which is all these tests touch.
func indexJIT(n int) *JIT {
	env := &interp.Env{Unit: &hhbc.Unit{Funcs: make([]*hhbc.Func, n)}}
	return New(Config{Mode: ModeTracelet}, env, &machine.Meter{})
}

func fakeTranslation(fn, pc, depth int) *Translation {
	return &Translation{FuncID: fn, PC: pc, Kind: ModeTracelet, EntryDepth: depth, Code: &mcode.Code{}}
}

// TestInstallCostIsPerFunction: publishing a translation copies its own
// function's slot of the index, not the index. Installing into a fresh
// function allocates about as much beside 2,000 published translations
// as beside 10.
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
}

// TestConcurrentInstallAndUnpublish: readers match frames at three
// addresses in two functions while one writer installs at all three
// and keeps invalidating one. Every chain a reader loads must be a run
// of consecutive installs at its own address — never one with a
// translation missing, repeated or from elsewhere — and every match
// must fit the frame.
func TestConcurrentInstallAndUnpublish(t *testing.T) {
	const installs, readers, invalidateEvery = 610, 4, 25
	j := indexJIT(2)
	keys := []transKey{{0, 0}, {1, 5}, {1, 2}}
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
	invalidated := 0
	for n := 0; n < installs; n++ {
		for _, key := range keys {
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
