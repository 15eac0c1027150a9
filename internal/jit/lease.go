package jit

import "sync"

// leaseTable implements per-function translation leases: every
// compile holds the lease of the function it translates. HHVM's write
// lease serializes code emission globally; keying the lease by FuncID
// lets worker-minted translations of different functions — and the
// optimizer's per-function batches — run their backends in parallel on
// real cores, while compiles of the same function still serialize
// (they share profiling state and retranslation chains).
//
// The optimizer acquires with writer preference: a writer announces
// itself before waiting, and readers arriving at an announced function
// queue behind it. That keeps the single global republish from being
// starved by a stream of minting workers hammering a hot function.
//
// Lock order: lease -> j.mu (compiles take j.mu inside the lease, for
// install and recycling; nothing acquires a lease while holding j.mu).
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond
	// held marks functions whose lease is currently taken.
	held map[int]bool
	// writers counts optimizer acquisitions announced or holding per
	// function; readers defer to them.
	writers map[int]int
	// readersWaiting counts blocked reader acquisitions per function
	// (to detect writer-preference takeovers).
	readersWaiting map[int]int

	// Stats, guarded by mu.
	acquires uint64 // total lease acquisitions
	waits    uint64 // acquisitions that blocked at least once
	steals   uint64 // writer acquisitions that jumped a waiting reader
}

func newLeaseTable() *leaseTable {
	t := &leaseTable{
		held:           map[int]bool{},
		writers:        map[int]int{},
		readersWaiting: map[int]int{},
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// acquire takes the lease of function fn, blocking while it is held.
// Writer acquisitions (the optimizer) take priority over queued
// readers (minting workers).
func (t *leaseTable) acquire(fn int, writer bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.acquires++
	blocked := false
	if writer {
		t.writers[fn]++
		if t.readersWaiting[fn] > 0 {
			t.steals++
		}
		for t.held[fn] {
			blocked = true
			t.cond.Wait()
		}
	} else {
		for t.held[fn] || t.writers[fn] > 0 {
			blocked = true
			t.readersWaiting[fn]++
			t.cond.Wait()
			t.readersWaiting[fn]--
		}
	}
	if blocked {
		t.waits++
	}
	t.held[fn] = true
}

// release drops the lease of fn and wakes every waiter (the table
// shares one condition variable; spurious wakeups re-check and sleep).
func (t *leaseTable) release(fn int, writer bool) {
	t.mu.Lock()
	delete(t.held, fn)
	if writer {
		if t.writers[fn]--; t.writers[fn] <= 0 {
			delete(t.writers, fn)
		}
	}
	if t.readersWaiting[fn] == 0 {
		delete(t.readersWaiting, fn)
	}
	t.mu.Unlock()
	t.cond.Broadcast()
}

// statsSnapshot returns (acquires, waits, steals).
func (t *leaseTable) statsSnapshot() (uint64, uint64, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acquires, t.waits, t.steals
}
