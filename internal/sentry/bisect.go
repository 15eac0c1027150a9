package sentry

import (
	"sort"

	"repro/internal/jit"
)

// bisect isolates the translation responsible for a divergence.
//
// The replay VM is deterministic by construction (published-only
// dispatch, frozen links, detached fault injector), so replaying the
// same endpoint with different per-translation disable masks is a
// pure function of the mask. Candidates are the currently-published
// translations in a deterministic order; the search finds the
// smallest prefix whose disabling makes the replay match the shadow
// reference, and the last translation of that prefix is the culprit.
// Under the single-corruption model this is a textbook binary search:
// O(log n) replays instead of n.
//
// The culprit is invalidated *with* backoff — unlike auditor repairs,
// a bisected divergence means the translation misbehaved while its
// checksum may still match (e.g. a miscompile), so the quarantine
// ladder should make re-minting progressively more reluctant.
func (m *Monitor) bisect(endpoint, refOut, refRet string) DivergenceReport {
	rep := DivergenceReport{Endpoint: endpoint, CulpritFunc: -1, CulpritPC: -1}

	var cands []*jit.Translation
	m.j.ForEachTranslation(func(tr *jit.Translation) { cands = append(cands, tr) })
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.FuncID != b.FuncID {
			return a.FuncID < b.FuncID
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})

	matches := func(denyN int) bool {
		deny := make(map[*jit.Translation]bool, denyN)
		for _, tr := range cands[:denyN] {
			deny[tr] = true
		}
		m.replayDeny = deny
		out, ret, err := m.runReplay(endpoint)
		m.replayDeny = nil
		m.replays.Add(1)
		rep.Replays++
		return err == nil && out == refOut && ret == refRet
	}

	if matches(0) {
		// The full published set already agrees with the reference:
		// the divergence no longer reproduces (the auditor repaired
		// it first, or the faulty translation was already recycled).
		rep.Transient = true
		m.transient.Add(1)
		return rep
	}
	if len(cands) == 0 || !matches(len(cands)) {
		// Even with every translation disabled — an interpreter-
		// equivalent replay — the divergence persists, so the fault
		// is not in the code cache. Report it unisolated.
		rep.Unisolable = true
		return rep
	}

	lo, hi := 1, len(cands)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if matches(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	culprit := cands[lo-1]
	rep.CulpritFunc = culprit.FuncID
	rep.CulpritPC = culprit.PC
	rep.CulpritKind = culprit.Kind.String()
	removed := m.j.Invalidate(culprit.FuncID, culprit.PC, true)
	rep.Quarantined = removed > 0
	if rep.Quarantined {
		m.quarantined.Add(1)
		m.invalidated.Add(uint64(removed))
	}
	return rep
}
