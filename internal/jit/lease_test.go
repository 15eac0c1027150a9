package jit

import (
	"reflect"
	"runtime"
	"testing"
)

// waitLocked spins until cond, evaluated under the table's mutex,
// holds — the tests sequence goroutines on the table's own state
// rather than on sleeps.
func waitLocked(t *leaseTable, cond func() bool) {
	for {
		t.mu.Lock()
		ok := cond()
		t.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

func TestLeaseLoneAcquirerNeverWaits(t *testing.T) {
	lt := newLeaseTable()
	for fn := 0; fn < 3; fn++ {
		for _, writer := range []bool{false, true} {
			lt.acquire(fn, writer)
			lt.release(fn, writer)
		}
	}
	acquires, waits, steals := lt.statsSnapshot()
	if acquires != 6 || waits != 0 || steals != 0 {
		t.Errorf("uncontended: acquires=%d waits=%d steals=%d, want 6, 0, 0", acquires, waits, steals)
	}
	if len(lt.held)+len(lt.writers)+len(lt.readersWaiting) != 0 {
		t.Errorf("table not empty after balanced releases: held=%v writers=%v readersWaiting=%v",
			lt.held, lt.writers, lt.readersWaiting)
	}
}

// TestLeaseWriterPreference: a writer that announces itself while a
// reader is already queued on a held lease is served first, and the
// takeover counts as one steal.
func TestLeaseWriterPreference(t *testing.T) {
	const fn = 7
	lt := newLeaseTable()
	lt.acquire(fn, false)

	order := make(chan string, 2)
	go func() {
		lt.acquire(fn, false)
		order <- "reader"
		lt.release(fn, false)
	}()
	waitLocked(lt, func() bool { return lt.readersWaiting[fn] == 1 })
	go func() {
		lt.acquire(fn, true)
		order <- "writer"
		lt.release(fn, true)
	}()
	waitLocked(lt, func() bool { return lt.writers[fn] == 1 })

	lt.release(fn, false)
	if got := []string{<-order, <-order}; !reflect.DeepEqual(got, []string{"writer", "reader"}) {
		t.Errorf("service order %v, want writer before the queued reader", got)
	}
	acquires, waits, steals := lt.statsSnapshot()
	if acquires != 3 || waits != 2 || steals != 1 {
		t.Errorf("acquires=%d waits=%d steals=%d, want 3, 2, 1", acquires, waits, steals)
	}
}
