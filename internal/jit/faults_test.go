// White-box tests for the quarantine state machine (DESIGN.md §9). Engine-level fault containment, recycling,
// and jumpstart corruption are exercised in internal/core.
package jit

import (
	"errors"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
)

func newQuarantineJIT(t *testing.T) *JIT {
	t.Helper()
	env := &interp.Env{Unit: &hhbc.Unit{}}
	return New(Config{Mode: ModeTracelet}, env, &machine.Meter{})
}

// advance moves the function-entries clock (the quarantine backoff
// timebase) forward by n events.
func advance(j *JIT, n uint64) { j.entries.Add(n) }

func TestCompileFailureBackoffDoubles(t *testing.T) {
	j := newQuarantineJIT(t)
	key := transKey{fn: 1, pc: 0}
	base := quarantineBase
	errBoom := errors.New("boom")

	for i := 1; i <= 3; i++ {
		j.noteCompileFailure(key, errBoom)
		attempts, _, permanent := j.QuarantineState(1, 0)
		if attempts != i || permanent {
			t.Fatalf("after failure %d: attempts=%d permanent=%v", i, attempts, permanent)
		}
		j.mu.Lock()
		quarantined := j.quarantinedLocked(key)
		until := j.quarantine[key].until
		now := j.entries.Load()
		j.mu.Unlock()
		if !quarantined {
			t.Fatalf("after failure %d: not quarantined", i)
		}
		wantWindow := base << uint(i-1)
		if got := until - now; got != wantWindow {
			t.Fatalf("failure %d backoff window = %d entries, want %d", i, got, wantWindow)
		}
		// Sitting out the backoff reopens minting.
		advance(j, wantWindow)
		j.mu.Lock()
		quarantined = j.quarantinedLocked(key)
		j.mu.Unlock()
		if quarantined {
			t.Fatalf("failure %d: still quarantined after backoff expired", i)
		}
	}
	if got := j.Stats().CompileFailures; got != 3 {
		t.Errorf("CompileFailures = %d, want 3", got)
	}
}

func TestCompileFailureExhaustionDemotesPermanently(t *testing.T) {
	j := newQuarantineJIT(t)
	key := transKey{fn: 2, pc: 4}
	errBoom := errors.New("boom")

	for i := 0; i < quarantineMaxAttempts; i++ {
		j.noteCompileFailure(key, errBoom)
	}
	_, _, permanent := j.QuarantineState(2, 4)
	if !permanent {
		t.Fatal("address not permanently demoted after exhausting the retry budget")
	}
	// Permanent means permanent: no backoff window ever reopens it.
	advance(j, 1<<30)
	j.mu.Lock()
	quarantined := j.quarantinedLocked(key)
	j.mu.Unlock()
	if !quarantined {
		t.Fatal("permanently demoted address came back after entries advanced")
	}
	if got := j.Stats().Demotions; got != 1 {
		t.Errorf("Demotions = %d, want 1", got)
	}
	// Further failures at a permanent address are a no-op.
	j.noteCompileFailure(key, errBoom)
	if attempts, _, _ := j.QuarantineState(2, 4); attempts != quarantineMaxAttempts {
		t.Errorf("attempts moved after permanent demotion: %d", attempts)
	}
}

func TestMintSuccessClearsCompileQuarantine(t *testing.T) {
	j := newQuarantineJIT(t)
	key := transKey{fn: 3, pc: 0}
	j.noteCompileFailure(key, errors.New("boom"))
	j.noteMintSuccess(key)
	if attempts, faults, permanent := j.QuarantineState(3, 0); attempts != 0 || faults != 0 || permanent {
		t.Fatalf("quarantine survived a successful mint: attempts=%d faults=%d permanent=%v",
			attempts, faults, permanent)
	}
	if got := j.Stats().QuarantineRecoveries; got != 1 {
		t.Errorf("QuarantineRecoveries = %d, want 1", got)
	}
	if got := j.quarantinedCount(); got != 0 {
		t.Errorf("quarantine table still holds %d entries", got)
	}
}

func TestSparseFaultsDecayInsteadOfDemoting(t *testing.T) {
	j := newQuarantineJIT(t)
	// Faults far apart on the entries clock (transient noise on a hot
	// translation) must never accumulate into a demotion.
	for i := 0; i < 10*faultDemote; i++ {
		j.RecordFault(9, 0)
		advance(j, quarantineBase+1)
	}
	if _, faults, permanent := j.QuarantineState(9, 0); faults > 1 || permanent {
		t.Fatalf("sparse faults accumulated: faults=%d permanent=%v", faults, permanent)
	}
	st := j.Stats()
	if st.Demotions != 0 {
		t.Errorf("sparse faults caused %d demotions", st.Demotions)
	}
	if st.TransFaults != uint64(10*faultDemote) {
		t.Errorf("TransFaults = %d, want %d", st.TransFaults, 10*faultDemote)
	}
}

func TestFaultBurstsEscalateToPermanent(t *testing.T) {
	j := newQuarantineJIT(t)
	key := transKey{fn: 5, pc: 8}

	// Each burst of faultDemote back-to-back faults is one demotion
	// episode: the address backs off, then (after a remint) may fault
	// again. quarantineMaxAttempts episodes make the demotion permanent.
	for ep := 1; ep <= quarantineMaxAttempts; ep++ {
		for i := 0; i < faultDemote; i++ {
			j.RecordFault(5, 8)
		}
		_, _, permanent := j.QuarantineState(5, 8)
		if ep < quarantineMaxAttempts {
			if permanent {
				t.Fatalf("episode %d: demoted permanently too early", ep)
			}
			j.mu.Lock()
			quarantined := j.quarantinedLocked(key)
			j.mu.Unlock()
			if !quarantined {
				t.Fatalf("episode %d: no backoff after a fault burst", ep)
			}
			// A successful remint clears the backoff but must keep the
			// episode history so escalation still converges.
			j.noteMintSuccess(key)
			if _, _, perm := j.QuarantineState(5, 8); perm {
				t.Fatalf("episode %d: remint flipped address to permanent", ep)
			}
		} else if !permanent {
			t.Fatalf("episode %d: still not permanent", ep)
		}
	}
	if got := j.Stats().Demotions; got != uint64(quarantineMaxAttempts) {
		t.Errorf("Demotions = %d, want %d", got, quarantineMaxAttempts)
	}
}

func TestSparseEpisodesResetEscalation(t *testing.T) {
	j := newQuarantineJIT(t)
	// Fault bursts spaced far beyond their own backoff window (rare
	// random bursts over a long-running server) must not creep toward
	// a permanent demotion, no matter how many accumulate.
	for n := 0; n < 3*quarantineMaxAttempts; n++ {
		for i := 0; i < faultDemote; i++ {
			j.RecordFault(7, 0)
		}
		if _, _, permanent := j.QuarantineState(7, 0); permanent {
			t.Fatalf("sparse burst %d escalated to permanent demotion", n)
		}
		j.noteMintSuccess(transKey{fn: 7, pc: 0})
		advance(j, 64*quarantineBase)
	}
	j.mu.Lock()
	episodes := j.quarantine[transKey{fn: 7, pc: 0}].episodes
	j.mu.Unlock()
	if episodes > 1 {
		t.Errorf("episode ladder = %d after widely spaced bursts, want reset to 1", episodes)
	}
}

func TestBackoffShiftIsCapped(t *testing.T) {
	base := quarantineBase
	if got, want := backoff(100), base<<16; got != want {
		t.Errorf("backoff(100) = %d, want capped %d", got, want)
	}
	if got := backoff(0); got != base {
		t.Errorf("backoff(0) = %d, want %d", got, base)
	}
}
