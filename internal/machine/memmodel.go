package machine

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

// touch returns true on hit.
func (s *lruSet) touch(key uint64) bool {
	if s.n > 0 && s.keys[0] == key {
		return true // already the most recent
	}
	for i := 1; i < s.n; i++ {
		if s.keys[i] == key {
			copy(s.keys[1:i+1], s.keys[:i])
			s.keys[0] = key
			return true
		}
	}
	if s.n < lruWays {
		s.n++
	}
	copy(s.keys[1:s.n], s.keys[:s.n-1])
	s.keys[0] = key
	return false
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

	// HugeCovers reports whether an address is huge-page mapped.
	HugeCovers func(addr uint64) bool
}

// NewFetchModel returns a cold fetch model.
func NewFetchModel() *FetchModel { return &FetchModel{} }

// Fetch charges the fetch cost for executing the instruction at addr,
// returning extra cycles beyond the instruction's own cost.
func (f *FetchModel) Fetch(addr uint64) uint64 {
	line := addr >> iCacheLineBits
	if line == f.lastLine {
		return 0 // same line as previous instruction: free
	}
	f.lastLine = line
	f.Fetches++
	var extra uint64

	if !f.sets[line%iCacheSets].touch(line) {
		f.ICacheMisses++
		extra += iCacheMissCost
	}

	huge := f.HugeCovers != nil && f.HugeCovers(addr)
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
