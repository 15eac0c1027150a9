// Package faultinject provides deterministic, seed-driven fault
// injection for the JIT's fault-containment layer (DESIGN.md §11).
// An Injector is threaded through the compile pipeline (jit), the
// code cache (mcode), the translation executor (machine), and the
// profile-snapshot loader (jumpstart); each layer asks Should(kind)
// at its injection point and simulates the corresponding failure when
// it fires. Draws are derived from a splitmix64 hash of (seed, kind,
// draw counter), so a given seed produces the same firing pattern on
// every run — the `bench -exp faults` experiment and the containment
// tests depend on that reproducibility.
//
// All methods are safe on a nil *Injector (they report "no fault"),
// so production paths carry a nil pointer at zero cost.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// CompileError fails a translation compile before the backend runs
	// (models an IR builder or lowering defect).
	CompileError Kind = iota
	// AllocFail fails one code-cache allocation (models a transient
	// mmap/protection failure, distinct from genuine cache exhaustion).
	AllocFail
	// TransPanic panics at a translation entry (models a miscompiled
	// region crashing inside JITed code).
	TransPanic
	// SnapshotCorrupt corrupts a jumpstart profile snapshot in flight
	// (models a torn write or bit rot in the persisted profile).
	SnapshotCorrupt
	// StaleLink stamps a freshly smashed chain link with an outdated
	// epoch (models a lost invalidation on a direct-jump patch).
	StaleLink
	// KindCount bounds the enum.
	KindCount
)

func (k Kind) String() string {
	switch k {
	case CompileError:
		return "compile-error"
	case AllocFail:
		return "alloc-fail"
	case TransPanic:
		return "trans-panic"
	case SnapshotCorrupt:
		return "snapshot-corrupt"
	case StaleLink:
		return "stale-link"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every injectable kind (reporting loops).
func Kinds() []Kind {
	ks := make([]Kind, KindCount)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Config describes an injection campaign.
type Config struct {
	// Seed drives the deterministic draw sequence.
	Seed int64
	// Rates[k] is the per-draw firing probability of kind k, in [0,1].
	Rates [KindCount]float64
}

// EnableAll returns a config firing every fault kind at rate. Every
// kind is loud: the containment layer recovers from it with outputs
// preserved.
func EnableAll(seed int64, rate float64) Config {
	c := Config{Seed: seed}
	for k := range c.Rates {
		c.Rates[k] = rate
	}
	return c
}

// Injector is the shared injection-point state. One injector serves
// every worker of an engine; all counters are atomic.
type Injector struct {
	seed       uint64
	thresholds [KindCount]uint64 // fire when hash < threshold
	draws      [KindCount]atomic.Uint64
	fired      [KindCount]atomic.Uint64
	forced     [KindCount]atomic.Int64
	// siteDraws holds the per-(kind, site) draw counters behind
	// ShouldAt: map[uint64]*atomic.Uint64 keyed by kindSalt ^ site.
	siteDraws sync.Map
}

// New builds an injector from cfg. A nil injector (no campaign) is
// the production configuration.
func New(cfg Config) *Injector {
	inj := &Injector{seed: uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0x1234567D}
	for k, r := range cfg.Rates {
		switch {
		case r <= 0:
		case r >= 1:
			inj.thresholds[k] = ^uint64(0)
		default:
			inj.thresholds[k] = uint64(r * float64(1<<63) * 2)
		}
	}
	return inj
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed avalanche hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Should draws the next sample for kind k and reports whether the
// fault fires. Deterministic in the per-kind draw index: draw n of
// kind k fires iff splitmix64(seed ^ kindSalt ^ n) < threshold.
func (inj *Injector) Should(k Kind) bool {
	if inj == nil || k < 0 || k >= KindCount {
		return false
	}
	for {
		f := inj.forced[k].Load()
		if f <= 0 {
			break
		}
		if inj.forced[k].CompareAndSwap(f, f-1) {
			inj.draws[k].Add(1)
			inj.fired[k].Add(1)
			return true
		}
	}
	th := inj.thresholds[k]
	if th == 0 {
		return false
	}
	n := inj.draws[k].Add(1)
	if splitmix64(inj.seed^(uint64(k)<<56)^n) < th {
		inj.fired[k].Add(1)
		return true
	}
	return false
}

// ShouldAt draws the next sample for kind k at an injection site
// identified by a caller-chosen stable key (e.g. a hash of function id
// and bytecode pc). Unlike Should, whose single per-kind counter makes
// the firing pattern depend on the global interleaving of draws,
// ShouldAt keys the draw sequence by (kind, site): the n-th attempt at
// a given site fires identically regardless of how many other sites
// drew in between or on which goroutine. Compiling the same sites in a
// different order therefore fails the same translations (attempts at
// one site are serialized by the JIT's write lease). Forced draws
// (ForceNext) are consumed first, exactly as in Should.
func (inj *Injector) ShouldAt(k Kind, site uint64) bool {
	if inj == nil || k < 0 || k >= KindCount {
		return false
	}
	for {
		f := inj.forced[k].Load()
		if f <= 0 {
			break
		}
		if inj.forced[k].CompareAndSwap(f, f-1) {
			inj.draws[k].Add(1)
			inj.fired[k].Add(1)
			return true
		}
	}
	th := inj.thresholds[k]
	if th == 0 {
		return false
	}
	key := uint64(k)<<56 ^ splitmix64(site)
	ctrAny, _ := inj.siteDraws.LoadOrStore(key, new(atomic.Uint64))
	n := ctrAny.(*atomic.Uint64).Add(1)
	inj.draws[k].Add(1)
	if splitmix64(inj.seed^key^(n*0xD6E8FEB86659FD93)) < th {
		inj.fired[k].Add(1)
		return true
	}
	return false
}

// ForceNext arms kind k to fire unconditionally on its next n draws
// (targeted tests and forced fault episodes).
func (inj *Injector) ForceNext(k Kind, n int64) {
	if inj != nil && k >= 0 && k < KindCount {
		inj.forced[k].Add(n)
	}
}

// Draws returns how many times kind k was sampled.
func (inj *Injector) Draws(k Kind) uint64 {
	if inj == nil || k < 0 || k >= KindCount {
		return 0
	}
	return inj.draws[k].Load()
}

// Fired returns how many times kind k fired.
func (inj *Injector) Fired(k Kind) uint64 {
	if inj == nil || k < 0 || k >= KindCount {
		return 0
	}
	return inj.fired[k].Load()
}

// TotalFired sums firings across every kind.
func (inj *Injector) TotalFired() uint64 {
	var n uint64
	for k := Kind(0); k < KindCount; k++ {
		n += inj.Fired(k)
	}
	return n
}

// CorruptBytes deterministically flips one payload byte of data in
// place (the last byte, guaranteed past any header), so a checksummed
// decoder must reject it.
func (inj *Injector) CorruptBytes(data []byte) {
	if len(data) > 0 {
		data[len(data)-1] ^= 0xA5
	}
}

// InjectedError marks a failure produced by the injector; layers use
// IsInjected to tell simulated faults from genuine resource
// exhaustion (an injected alloc failure must not latch cache-full).
type InjectedError struct{ Kind Kind }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s", e.Kind)
}

// Errf builds the injected-fault error for kind k.
func Errf(k Kind) error { return &InjectedError{Kind: k} }

// IsInjected reports whether err originated from an injector.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}
