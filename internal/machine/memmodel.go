package machine

import "repro/internal/mcode"

// Instruction-fetch hierarchy model: a set-associative L1 i-cache and
// an instruction TLB with separate 4 KiB and 2 MiB (huge page)
// entries, mirroring the dedicated huge-page I-TLB entries on Intel
// hardware that HHVM's huge-page optimization exploits (Section
// 5.1.2).

const (
	iCacheLineBits = 6  // 64-byte lines
	iCacheSets     = 64 // 64 sets x 8 ways x 64B = 32 KiB

	page4KBits = 12
	page2MBits = 21

	// lruWays is the capacity of every modelled structure: the ways of
	// an i-cache set, the 4 KiB I-TLB entries left after the (huge) VM
	// binary's own pages, and the dedicated 2 MiB entries.
	lruWays = 8

	iCacheMissCost = 20
	itlbMissCost   = 30
)

// lruSet is a tiny fully-associative LRU array, most recent first.
// The zero value is empty.
type lruSet struct {
	keys [lruWays]uint64
	n    int
}

// touch returns true on hit. The most recent way is checked inline;
// the rest of the walk is touchOlder.
func (s *lruSet) touch(key uint64) bool {
	if s.n > 0 && s.keys[0] == key {
		return true
	}
	return s.touchOlder(key)
}

// touchOlder moves key to the front, shifting the ways it passes down
// one: a hit found at i, or a miss that fills a way or evicts the last.
// Kept out of line so that touch inlines.
//
//go:noinline
func (s *lruSet) touchOlder(key uint64) bool {
	i := 1
	for i < s.n && s.keys[i] != key {
		i++
	}
	hit := i < s.n
	if !hit {
		if s.n < lruWays {
			s.n++
		}
		i = s.n - 1
	}
	for ; i > 0; i-- {
		s.keys[i] = s.keys[i-1]
	}
	s.keys[0] = key
	return hit
}

// FetchModel tracks i-cache and I-TLB state across requests (they
// warm up like real hardware structures).
type FetchModel struct {
	sets     [iCacheSets]lruSet
	itlb4K   lruSet
	itlbHuge lruSet

	lastLine uint64
	lastPage uint64

	// Stats.
	ICacheMisses uint64
	ITLBMisses   uint64
	Fetches      uint64

	// Huge is the code cache whose huge-page mapping decides which
	// addresses the dedicated 2 MiB entries translate; nil maps none.
	Huge *mcode.Cache
}

// NewFetchModel returns a cold fetch model.
func NewFetchModel() *FetchModel { return &FetchModel{} }

// Fetch charges the fetch cost for executing the instruction at addr,
// returning extra cycles beyond the instruction's own cost. The
// same-line check is inline at the call; a new line is fetchLine.
func (f *FetchModel) Fetch(addr uint64) uint64 {
	if addr>>iCacheLineBits == f.lastLine {
		return 0 // same line as previous instruction: free
	}
	return f.fetchLine(addr)
}

func (f *FetchModel) fetchLine(addr uint64) uint64 {
	line := addr >> iCacheLineBits
	f.lastLine = line
	f.Fetches++
	var extra uint64

	if !f.sets[line%iCacheSets].touch(line) {
		f.ICacheMisses++
		extra += iCacheMissCost
	}

	huge := f.Huge != nil && f.Huge.HugeCovers(addr)
	var page uint64
	if huge {
		page = addr>>page2MBits | 1<<63
	} else {
		page = addr >> page4KBits
	}
	if page != f.lastPage {
		f.lastPage = page
		var hit bool
		if huge {
			hit = f.itlbHuge.touch(page)
		} else {
			hit = f.itlb4K.touch(page)
		}
		if !hit {
			f.ITLBMisses++
			extra += itlbMissCost
		}
	}
	return extra
}
