// Package sentry is the JIT's self-verification layer: it assumes the
// compiler, the code cache, or the machine below them will eventually
// be wrong, and builds the detection machinery to notice before users
// do.
//
// Three mechanisms compose:
//
//   - Integrity sentinels: every published translation is checksummed
//     at publish time (code bytes plus a shadow of the smashable-link
//     slab's static layout). A low-priority auditor re-walks the code
//     cache validating checksums, link epochs, and that every live
//     link targets a still-published translation. A mismatch
//     invalidates the translation through the quarantine path and
//     lets the normal mint machinery re-create it.
//
//   - Sampled shadow execution: a configurable fraction of requests
//     is re-executed on a shadow interpreter-only VM and on an
//     isolated replay VM that runs the published code without
//     mutating any shared state. Output bytes, rendered return
//     values, and a shape digest are compared off the hot path.
//
//   - Divergence bisection: when a comparison fails, the request is
//     replayed deterministically with per-translation disable masks,
//     binary-searching for the culprit translation, which is then
//     quarantined, and a divergence report is emitted.
package sentry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jit"
	"repro/internal/mcode"
	"repro/internal/types"
	"repro/internal/vm"
)

// Config tunes a Monitor.
type Config struct {
	// SampleRate is the fraction of observed requests re-executed on
	// the shadow interpreter (0 disables shadow sampling; audit-only
	// monitors are still useful).
	SampleRate float64
	// Seed drives the deterministic sampling decision.
	Seed int64
	// QueueDepth bounds the pending-comparison buffer (default 256).
	QueueDepth int
	// AuditChunk is how many translations AuditStep validates per
	// call (default 8).
	AuditChunk int
}

// Stats is a counter snapshot for reports and JSON output.
type Stats struct {
	ChecksumsRecorded uint64 // publish-time checksum records
	AuditSweeps       uint64 // completed full passes over the registry
	Audited           uint64 // translations validated
	Corruptions       uint64 // checksum mismatches detected
	TornLinks         uint64 // future-epoch links detected (torn writes)
	StaleLinks        uint64 // past-epoch links cleared by the auditor
	DanglingLinks     uint64 // current-epoch links to unpublished code
	Invalidated       uint64 // translations unpublished by the auditor
	Sampled           uint64 // requests selected for shadow execution
	ShadowRuns        uint64 // shadow comparisons completed
	Divergences       uint64 // mismatches (primary/replay vs shadow)
	Replays           uint64 // bisection replay executions
	Quarantined       uint64 // culprits quarantined after bisection
	Transient         uint64 // divergences that no longer reproduced
}

// DivergenceReport records one detected divergence and the outcome of
// its bisection.
type DivergenceReport struct {
	Endpoint      string
	PrimaryOutput string
	ShadowOutput  string
	PrimaryDigest uint64
	ShadowDigest  uint64
	// Replays is the number of deterministic re-executions the
	// bisection needed.
	Replays int
	// CulpritFunc/CulpritPC identify the quarantined translation
	// (-1/-1 when no culprit could be isolated).
	CulpritFunc int
	CulpritPC   int
	CulpritKind string
	Quarantined bool
	// Transient means the divergence did not reproduce on replay
	// (e.g. the auditor already repaired the corruption).
	Transient bool
	// Unisolable means even an interpreter-equivalent replay (every
	// translation disabled) still diverged from the shadow reference,
	// so the fault is outside the code cache.
	Unisolable bool
}

// Monitor attaches the verification layer to one JIT instance.
type Monitor struct {
	cfg Config
	j   *jit.JIT

	// registry of published translations and their publish-time
	// checksums. Guarded by mu. The publish/unpublish hooks run under
	// the JIT's lock, so nothing here may call back into the JIT
	// while holding mu (lock order: jit.mu before Monitor.mu).
	mu      sync.Mutex
	sums    map[*jit.Translation]uint64
	backlog []*jit.Translation // current audit sweep, deterministic order

	// shadow is a private interpreter-only VM over the same unit: the
	// semantic reference. replay executes published translations
	// without mutating shared state (see vm.NewReplay). Both are
	// owned by the comparator goroutine after Start.
	shadow     *vm.VM
	shadowBuf  strings.Builder
	replay     *vm.VM
	replayBuf  strings.Builder
	replayDeny map[*jit.Translation]bool
	// shadowMemo caches the interpreter reference per endpoint.
	// Endpoint outputs are deterministic by construction (the perflab
	// measurement protocol rejects nondeterministic ones) and the
	// interpreter never reads JIT state, so the reference needs
	// computing once; without the memo, every sampled request would
	// pay a full interpreter re-execution — which on a small host is
	// the entire verification overhead budget. The replay leg always
	// runs fresh: it is the one exercising the live code cache.
	// Owned by the comparator goroutine; no locking.
	shadowMemo map[string]shadowRef

	obs    chan observation
	wg     sync.WaitGroup
	closed bool

	repMu   sync.Mutex
	reports []DivergenceReport

	reqSeq    atomic.Uint64
	threshold uint64

	checksums   atomic.Uint64
	sweeps      atomic.Uint64
	audited     atomic.Uint64
	corruptions atomic.Uint64
	tornLinks   atomic.Uint64
	staleLinks  atomic.Uint64
	dangling    atomic.Uint64
	invalidated atomic.Uint64
	sampled     atomic.Uint64
	shadowRuns  atomic.Uint64
	divergences atomic.Uint64
	replays     atomic.Uint64
	quarantined atomic.Uint64
	transient   atomic.Uint64
}

// New builds a Monitor over j, registers its publish/unpublish hooks,
// seeds the checksum registry from already-published translations,
// and starts the comparator goroutine. Call Close when done.
func New(cfg Config, j *jit.JIT) (*Monitor, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.AuditChunk <= 0 {
		cfg.AuditChunk = 8
	}
	m := &Monitor{
		cfg:  cfg,
		j:    j,
		sums: map[*jit.Translation]uint64{},
		obs:  make(chan observation, cfg.QueueDepth),
	}
	if cfg.SampleRate > 0 {
		r := cfg.SampleRate
		if r >= 1 {
			// float64(MaxUint64) rounds to 2^64, and converting that
			// back to uint64 overflows (implementation-specific; 2^63
			// on amd64 — i.e. rate 1.0 would sample half). Clamp
			// exactly instead.
			m.threshold = math.MaxUint64
		} else {
			m.threshold = uint64(r * float64(math.MaxUint64))
			if m.threshold == 0 {
				m.threshold = 1
			}
		}
	}
	shadow, err := vm.New(j.Unit, jit.Config{Mode: jit.ModeInterp}, io.Discard)
	if err != nil {
		return nil, fmt.Errorf("sentry: shadow VM: %w", err)
	}
	m.shadow = shadow
	m.shadow.SetOut(&m.shadowBuf)
	m.shadowMemo = map[string]shadowRef{}
	m.replay = vm.NewReplay(j, func(tr *jit.Translation) bool { return m.replayDeny[tr] })
	m.replay.SetOut(&m.replayBuf)

	j.SetVerifyHooks(m.record, m.forget)
	// Seed the registry with whatever was published before we
	// attached (hooks cover everything from here on; re-records are
	// idempotent).
	j.ForEachTranslation(m.record)

	m.wg.Add(1)
	go m.comparatorLoop()
	return m, nil
}

// record is the publish hook: checksum the new translation's code.
// Runs under the JIT's lock — must not call back into the JIT.
func (m *Monitor) record(tr *jit.Translation) {
	if tr == nil || tr.Code == nil {
		return
	}
	sum := Checksum(tr.Code)
	m.mu.Lock()
	if _, seen := m.sums[tr]; !seen {
		m.checksums.Add(1)
	}
	m.sums[tr] = sum
	m.mu.Unlock()
}

// forget is the unpublish hook.
func (m *Monitor) forget(tr *jit.Translation) {
	m.mu.Lock()
	delete(m.sums, tr)
	m.mu.Unlock()
}

// Checksum hashes the translation-visible content of a code object:
// the instruction stream, the resolved block-start table, the
// materialized constant pool, the bound builtins, jump tables, frame
// sizing, placement, the static layout of the link slab, and the
// tamper word. Live link *contents* are deliberately excluded — smashing and
// treadmill sweeps rewrite them legitimately — and are audited
// separately against the current epoch.
func Checksum(c *mcode.Code) uint64 {
	h := fnvOffset
	for i := range c.Instrs {
		in := &c.Instrs[i]
		h = fnvInt(h, int64(in.Op))
		h = fnvInt(h, int64(in.D))
		h = fnvInt(h, int64(in.A))
		h = fnvInt(h, int64(in.B))
		h = fnvInt(h, in.I64)
		h = fnvStr(h, in.Str)
		h = fnvStr(h, in.TypeParam.String())
		h = fnvInt(h, int64(in.Target1))
		h = fnvInt(h, int64(in.Target2))
		h = fnvInt(h, int64(len(in.Args)))
		for _, r := range in.Args {
			h = fnvInt(h, int64(r))
		}
		if in.Ex != nil {
			h = fnvInt(h, 1)
		}
	}
	for _, b := range c.BlockStart {
		h = fnvInt(h, int64(b))
	}
	for _, v := range c.Consts {
		h = fnvInt(h, int64(v.Kind))
		switch v.Kind {
		case types.KStr:
			h = fnvStr(h, v.AsStr().Data)
		case types.KDbl:
			h = fnvInt(h, int64(math.Float64bits(v.AsDbl())))
		default:
			h = fnvInt(h, v.AsInt())
		}
	}
	for _, b := range c.Builtins {
		h = fnvStr(h, b.Name)
	}
	for _, tbl := range c.Tables {
		h = fnvInt(h, tbl.Base)
		h = fnvInt(h, int64(tbl.Default))
		for _, t := range tbl.Targets {
			h = fnvInt(h, int64(t))
		}
	}
	h = fnvInt(h, int64(c.NumSpills))
	h = fnvInt(h, int64(c.ExtSlots))
	h = fnvInt(h, int64(c.Base))
	h = fnvInt(h, int64(c.Size))
	h = fnvInt(h, int64(c.Tampered()))
	return h
}

// Audit runs a full sweep over every registered translation and
// returns the number of corruptions (checksum mismatches plus torn
// links) it found.
func (m *Monitor) Audit() int {
	found := 0
	for {
		n, more := m.auditSome(64)
		found += n
		if !more {
			return found
		}
	}
}

// AuditStep validates up to n translations (a serving loop calls it
// every so many requests so auditing stays low-priority). Returns the
// number of corruptions found in this step.
func (m *Monitor) AuditStep(n int) int {
	if n <= 0 {
		n = m.cfg.AuditChunk
	}
	found, _ := m.auditSome(n)
	return found
}

// auditSome pops up to n translations off the current sweep backlog
// (starting a new sweep when it is empty) and validates them. The
// second result reports whether the sweep still has work left.
func (m *Monitor) auditSome(n int) (int, bool) {
	m.mu.Lock()
	if len(m.backlog) == 0 {
		if len(m.sums) == 0 {
			m.mu.Unlock()
			return 0, false
		}
		m.backlog = make([]*jit.Translation, 0, len(m.sums))
		for tr := range m.sums {
			m.backlog = append(m.backlog, tr)
		}
		sort.Slice(m.backlog, func(i, j int) bool {
			a, b := m.backlog[i], m.backlog[j]
			if a.FuncID != b.FuncID {
				return a.FuncID < b.FuncID
			}
			if a.PC != b.PC {
				return a.PC < b.PC
			}
			return a.Kind < b.Kind
		})
		m.sweeps.Add(1)
	}
	if n > len(m.backlog) {
		n = len(m.backlog)
	}
	chunk := m.backlog[:n]
	m.backlog = m.backlog[n:]
	type job struct {
		tr   *jit.Translation
		want uint64
	}
	jobs := make([]job, 0, len(chunk))
	for _, tr := range chunk {
		if want, ok := m.sums[tr]; ok { // skip concurrently-unpublished
			jobs = append(jobs, job{tr, want})
		}
	}
	more := len(m.backlog) > 0
	m.mu.Unlock()

	found := 0
	for _, jb := range jobs {
		found += m.validate(jb.tr, jb.want)
	}
	return found, more
}

// validate checks one translation's checksum and link slab. Called
// without mu held (it may call back into the JIT to invalidate).
func (m *Monitor) validate(tr *jit.Translation, want uint64) int {
	m.audited.Add(1)
	found := 0
	if got := Checksum(tr.Code); got != want {
		// Code bytes rotted under us. The compiler itself is not
		// suspect, so invalidate without backoff: the next entry
		// re-mints a clean translation.
		m.corruptions.Add(1)
		found++
		removed := m.j.Invalidate(tr.FuncID, tr.PC, false)
		m.invalidated.Add(uint64(removed))
		return found
	}
	epoch := m.j.Epoch()
	tr.Code.ForEachLink(func(instr int, l *mcode.Link) {
		switch {
		case l.Epoch > epoch:
			// Epochs only ever advance under the JIT's lock, so a
			// future epoch cannot be a benign leftover: the write
			// was torn. Unbind the site; the dispatcher re-binds.
			m.tornLinks.Add(1)
			found++
			tr.Code.StoreLink(instr, nil)
		case l.Epoch < epoch:
			// Benign stale leftover the treadmill has not reached
			// yet; clear it so the site re-binds in this epoch.
			m.staleLinks.Add(1)
			tr.Code.StoreLink(instr, nil)
		default:
			target, ok := l.Target.(*jit.Translation)
			if !ok {
				return // inline-cache tables are epoch-checked above
			}
			m.mu.Lock()
			_, published := m.sums[target]
			m.mu.Unlock()
			if !published {
				// A current-epoch link must point at a published
				// translation; anything else is a dangling edge.
				m.dangling.Add(1)
				found++
				tr.Code.StoreLink(instr, nil)
			}
		}
	})
	return found
}

// Stats snapshots the monitor's counters.
func (m *Monitor) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		ChecksumsRecorded: m.checksums.Load(),
		AuditSweeps:       m.sweeps.Load(),
		Audited:           m.audited.Load(),
		Corruptions:       m.corruptions.Load(),
		TornLinks:         m.tornLinks.Load(),
		StaleLinks:        m.staleLinks.Load(),
		DanglingLinks:     m.dangling.Load(),
		Invalidated:       m.invalidated.Load(),
		Sampled:           m.sampled.Load(),
		ShadowRuns:        m.shadowRuns.Load(),
		Divergences:       m.divergences.Load(),
		Replays:           m.replays.Load(),
		Quarantined:       m.quarantined.Load(),
		Transient:         m.transient.Load(),
	}
}

// Reports returns a copy of the accumulated divergence reports.
func (m *Monitor) Reports() []DivergenceReport {
	if m == nil {
		return nil
	}
	m.repMu.Lock()
	defer m.repMu.Unlock()
	return append([]DivergenceReport(nil), m.reports...)
}

// Registered returns the number of translations in the checksum
// registry (tests and reports).
func (m *Monitor) Registered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sums)
}

// Close drains pending comparisons, stops the comparator, and
// detaches the monitor's hooks from the JIT.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.j.SetVerifyHooks(nil, nil)
	close(m.obs)
	m.wg.Wait()
}

// fnv64 helpers (FNV-1a, same construction the profile snapshot
// codec uses).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvInt(h, int64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
