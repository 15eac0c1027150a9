// Fault containment and self-healing (DESIGN.md §9 and §11): translation
// quarantine with capped-backoff retry, fault-driven demotion that
// unpublishes bad translations from the RCU index, and code-cache
// recycling that evicts cold translations under pressure instead of
// latching the JIT off forever. The degradation ladder (Degrade*)
// sheds work in stages when recycling cannot keep up.
package jit

import (
	"sort"
	"sync/atomic"
)

// The quarantine schedule. The clock is function entries (j.entries),
// so idle servers do not burn their retry budget.
const (
	// quarantineBase is the initial retry backoff after a compile
	// failure or fault burst; it doubles per consecutive failure. It is
	// also the window within which contained faults accumulate.
	quarantineBase uint64 = 32
	// quarantineMaxAttempts caps compile retries (and demotion
	// episodes) at one address before it is interp-only for good.
	quarantineMaxAttempts = 6
	// faultDemote is the number of contained execution faults within
	// one window that unpublishes the address's translations.
	faultDemote = 3
)

// quarantineEntry tracks one (func, PC) address that failed to
// compile or whose translation faulted at runtime.
type quarantineEntry struct {
	// attempts counts consecutive failed compile attempts; it drives
	// the exponential retry backoff and the demotion budget.
	attempts int
	// faults counts contained execution faults (machine.TransFault)
	// within the current fault window; isolated faults far apart on
	// the entries clock do not accumulate (transient noise must not
	// slowly demote every hot translation).
	faults int
	// lastFault is the entries-clock reading of the latest fault.
	lastFault uint64
	// episodes counts demotion episodes (fault bursts that got the
	// address's translations unpublished); repeated episodes escalate
	// to a permanent interp-only demotion.
	episodes int
	// lastEpisode is the entries-clock reading of the latest episode;
	// episodes spaced far beyond their own backoff window reset the
	// escalation (see RecordFault).
	lastEpisode uint64
	// until is the j.entries value before which minting at this
	// address is suppressed.
	until uint64
	// permanent marks the address demoted to interp-only for good.
	permanent bool
}

// quarantinedLocked reports whether minting at key is currently
// suppressed. Callers hold j.mu.
func (j *JIT) quarantinedLocked(key transKey) bool {
	q := j.quarantine[key]
	if q == nil {
		return false
	}
	return q.permanent || j.entries.Load() < q.until
}

// quarantinedCount is the Stats.Quarantined gauge.
func (j *JIT) quarantinedCount() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return uint64(len(j.quarantine))
}

// QuarantineState exposes one address's quarantine record for tests
// and diagnostics: consecutive failed attempts, contained faults, and
// whether the address is permanently demoted.
func (j *JIT) QuarantineState(fnID, pc int) (attempts, faults int, permanent bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if q := j.quarantine[transKey{fnID, pc}]; q != nil {
		return q.attempts, q.faults, q.permanent
	}
	return 0, 0, false
}

// ForEachQuarantined visits every quarantine record (iteration order
// unspecified) — the full-ledger companion to QuarantineState, used
// to compare quarantine outcomes across runs.
func (j *JIT) ForEachQuarantined(fn func(fnID, pc, attempts int, permanent bool)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for key, q := range j.quarantine {
		fn(key.fn, key.pc, q.attempts, q.permanent)
	}
}

// backoff computes the retry window after the given number of
// consecutive failures: quarantineBase entries, doubling per failure,
// capped so the shift cannot overflow.
func backoff(attempts int) uint64 {
	return quarantineBase << uint(min(max(attempts-1, 0), 16))
}

// quarantineEntryLocked returns key's quarantine record, creating it.
// Callers hold j.mu.
func (j *JIT) quarantineEntryLocked(key transKey) *quarantineEntry {
	q := j.quarantine[key]
	if q == nil {
		q = &quarantineEntry{}
		j.quarantine[key] = q
	}
	return q
}

// noteCompileFailure quarantines key after a failed mint.
func (j *JIT) noteCompileFailure(key transKey, err error) {
	atomic.AddUint64(&j.stats.CompileFailures, 1)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.strikeLocked(key)
}

// strikeLocked charges key one failed attempt. Transient failures
// (injected compile errors, injected allocation failures, malformed
// streams) earn exponential backoff; exhausting the retry budget
// demotes the address permanently and unpublishes whatever is
// installed there. Callers hold j.mu.
func (j *JIT) strikeLocked(key transKey) {
	q := j.quarantineEntryLocked(key)
	if q.permanent {
		return
	}
	q.attempts++
	if q.attempts >= quarantineMaxAttempts {
		q.permanent = true
		atomic.AddUint64(&j.stats.Demotions, 1)
		j.unpublishKeysLocked(map[transKey]bool{key: true})
		return
	}
	q.until = j.entries.Load() + backoff(q.attempts)
}

// noteMintSuccess clears key's quarantine after a successful compile:
// the address healed, so its failure history is forgotten.
func (j *JIT) noteMintSuccess(key transKey) {
	j.mu.Lock()
	defer j.mu.Unlock()
	q := j.quarantine[key]
	if q == nil || q.permanent {
		return
	}
	atomic.AddUint64(&j.stats.QuarantineRecoveries, 1)
	if q.episodes == 0 {
		// Pure compile-failure history: the address healed, forget it.
		delete(j.quarantine, key)
		return
	}
	// Keep the fault-episode history — an address that faults again
	// after reminting must keep escalating toward permanent demotion —
	// but clear the compile backoff.
	q.attempts = 0
	q.until = 0
}

// RecordFault notes one contained translation fault at (fnID, pc):
// the VM caught a machine.TransFault, re-executed the region in the
// interpreter, and the request completed. Repeated faults at one
// address demote it — its translations are unpublished from the index
// and it stays interp-only.
func (j *JIT) RecordFault(fnID, pc int) {
	atomic.AddUint64(&j.stats.TransFaults, 1)
	key := transKey{fnID, pc}
	j.mu.Lock()
	defer j.mu.Unlock()
	q := j.quarantineEntryLocked(key)
	if q.permanent {
		return
	}
	// Fault counting is windowed on the entries clock: only a burst of
	// faults close together (a deterministic bug firing on every entry)
	// demotes. Sparse faults — transient noise on a hot translation
	// entered thousands of times — decay instead of accumulating
	// toward an inevitable demotion.
	now := j.entries.Load()
	if q.lastFault > 0 && now-q.lastFault > quarantineBase {
		q.faults = 0
	}
	q.lastFault = now
	q.faults++
	if q.faults < faultDemote {
		// Below the demotion threshold the translation stays published
		// (the fault may be transient), and minting is not blocked.
		return
	}
	// A fault burst: unpublish the address's translations and back off
	// before reminting. Only repeated episodes demote for good — a
	// remint after a transient burst deserves a clean slate.
	//
	// Episode escalation decays too: a deterministic bug re-faults as
	// soon as its backoff expires and it is reminted, so the gap
	// between its episodes tracks the backoff itself; episodes spaced
	// far beyond that (sparse random bursts on a long-running hot
	// address) reset the ladder instead of creeping toward an
	// inevitable permanent demotion.
	q.faults = 0
	if q.episodes > 0 && now-q.lastEpisode > 4*backoff(q.episodes) {
		q.episodes = 0
	}
	q.lastEpisode = now
	q.episodes++
	atomic.AddUint64(&j.stats.Demotions, 1)
	j.unpublishKeysLocked(map[transKey]bool{key: true})
	if q.episodes >= quarantineMaxAttempts {
		q.permanent = true
	} else {
		q.until = now + backoff(q.episodes)
	}
}

// unpublishKeysLocked removes every translation at the given keys
// from the RCU index, advances the link epoch, treadmill-sweeps the
// survivors so no stale chain link can reach the removed code, and
// returns the removed translations' code to the cache. Callers hold
// j.mu; lock-free readers iterating the old index keep working and
// pick up the new one on their next load.
func (j *JIT) unpublishKeysLocked(keys map[transKey]bool) (removed []*Translation) {
	old := *j.trans.Load()
	idx := make(transIndex, len(old))
	for k, chain := range old {
		if keys[k] {
			removed = append(removed, chain...)
			continue
		}
		idx[k] = chain
	}
	if len(removed) == 0 {
		return nil
	}
	j.trans.Store(&idx)
	j.sweepLinks(idx, j.epoch.Add(1))
	for _, tr := range removed {
		j.retireCode(tr)
	}
	atomic.AddUint64(&j.stats.Unpublished, uint64(len(removed)))
	return removed
}

// Invalidate forcibly unpublishes every translation at (fnID, pc); the
// address remints on its next dispatch, with no quarantine charged.
// Returns the number of translations removed.
func (j *JIT) Invalidate(fnID, pc int) int {
	key := transKey{fnID, pc}
	j.mu.Lock()
	defer j.mu.Unlock()
	removed := j.unpublishKeysLocked(map[transKey]bool{key: true})
	// The address starts cold again: thresholds apply afresh on remint.
	delete(j.entryCount, key)
	return len(removed)
}

// sweepLinks is the treadmill sweep that follows an epoch advance: it
// walks the surviving code and physically clears every stale-epoch
// link, so retired *Translation targets become collectable and
// machines stop paying the stale-check fee.
func (j *JIT) sweepLinks(idx transIndex, epoch uint64) {
	swept := 0
	for _, chain := range idx {
		for _, tr := range chain {
			swept += tr.Code.SweepLinks(epoch)
		}
	}
	if swept > 0 {
		j.Chain.LinksSwept.Add(uint64(swept))
	}
}

// retireCode returns one translation's extent to its cache area and
// rolls the resident-byte stat back. Safe under j.mu (the cache has
// its own lock, taken after).
func (j *JIT) retireCode(tr *Translation) {
	area, _, bytes := j.residence(tr.Kind)
	size := tr.Code.Size
	j.Cache.Free(area, size)
	if size > 0 {
		atomic.AddUint64(bytes, ^(size - 1))
	}
}

// recycle frees code-cache space after genuine exhaustion by evicting
// the coldest translations (lowest use count) until `need` bytes plus
// a slack of limit/16 are reclaimed. On success the sticky cacheFull
// latch is cleared and minting resumes; on failure the degradation
// ladder escalates one level. Returns whether enough space was freed.
// Called from the compile path with the compiled function's lease
// held; j.mu is taken here (lock order lease -> j.mu). Recyclers of
// different functions serialize on j.mu.
func (j *JIT) recycle(need uint64) bool {
	j.mu.Lock()
	atomic.AddUint64(&j.stats.RecycleRuns, 1)

	type cand struct {
		key transKey
		tr  *Translation
	}
	var cands []cand
	for k, chain := range *j.trans.Load() {
		for _, tr := range chain {
			cands = append(cands, cand{k, tr})
		}
	}
	// Coldest first; deterministic tie-break so concurrent runs and
	// reruns evict the same victims.
	sort.Slice(cands, func(a, b int) bool {
		ua, ub := cands[a].tr.Uses(), cands[b].tr.Uses()
		if ua != ub {
			return ua < ub
		}
		if cands[a].key.fn != cands[b].key.fn {
			return cands[a].key.fn < cands[b].key.fn
		}
		if cands[a].key.pc != cands[b].key.pc {
			return cands[a].key.pc < cands[b].key.pc
		}
		return cands[a].tr.Kind < cands[b].tr.Kind
	})

	target := need + j.Cache.Limit()/16
	var planned uint64
	evictKeys := map[transKey]bool{}
	victims := 0
	for _, c := range cands {
		if planned >= target {
			break
		}
		// Whole chains go: evicting one link of a retranslation chain
		// and keeping its siblings buys little and complicates the
		// index rewrite.
		if evictKeys[c.key] {
			continue
		}
		evictKeys[c.key] = true
		for _, tr := range (*j.trans.Load())[c.key] {
			planned += tr.Code.Size
			victims++
		}
	}
	// Freed bytes are measured against the cache, not summed from
	// translation sizes: an extent can already have been bulk-freed
	// (profiling code is discarded wholesale at the optimized publish),
	// and claiming its bytes again would declare phantom progress.
	before := j.Cache.TotalUsed()
	if victims > 0 {
		j.unpublishKeysLocked(evictKeys)
		atomic.AddUint64(&j.stats.Evictions, uint64(victims))
		// Evicted addresses may remint later (they start cold again);
		// reset their entry counts so thresholds apply afresh.
		for k := range evictKeys {
			delete(j.entryCount, k)
		}
	}
	freed := before - j.Cache.TotalUsed()
	atomic.AddUint64(&j.stats.EvictedBytes, freed)
	ok := freed >= need
	j.mu.Unlock()

	if ok {
		// Pressure relieved: reopen minting and walk the ladder back.
		j.cacheFull.Store(false)
		j.degrade.Store(DegradeNone)
	} else {
		j.escalateDegrade()
	}
	return ok
}

// escalateDegrade moves the degradation ladder one level down (toward
// interp-only), never past the bottom.
func (j *JIT) escalateDegrade() {
	for {
		cur := j.degrade.Load()
		if cur >= DegradeInterpOnly {
			return
		}
		if j.degrade.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}

// DegradeLevel returns the current degradation-ladder level.
func (j *JIT) DegradeLevel() int32 { return j.degrade.Load() }

// Shed forces the degradation ladder down to at least level — the
// ladder's manual entry. Cache exhaustion (recycle) walks the same
// levels one step at a time: first live minting stops, then all
// minting, finally JITed execution itself, while requests keep being
// answered. Shed sets a level directly, so a caller (or a test)
// reaches any rung without filling a code cache. Levels beyond
// DegradeInterpOnly clamp; Shed never raises the ladder back up — only
// a successful recycle does.
func (j *JIT) Shed(level int32) {
	if level > DegradeInterpOnly {
		level = DegradeInterpOnly
	}
	for {
		cur := j.degrade.Load()
		if cur >= level {
			return
		}
		if j.degrade.CompareAndSwap(cur, level) {
			return
		}
	}
}

// CacheFull reports whether the cache-full latch is currently set.
func (j *JIT) CacheFull() bool { return j.cacheFull.Load() }
