package runtime

import (
	"hash/maphash"
	"slices"
	"unsafe"

	"repro/internal/types"
)

// Array is the guest array. PHP arrays are ordered maps with value
// semantics implemented by copy-on-write: mutation of an array whose
// refcount exceeds one first clones it. Like HHVM, two layouts exist:
//
//   - packed: keys are exactly 0..n-1, elements in a slice;
//   - mixed: HHVM's MixedArray, one insertion-ordered entry slice and,
//     past linearMax entries, an open-addressed hash of positions in it
//     (DESIGN.md §6, "Arrays").
//
// The JIT specializes array access on the layout kind.
type Array struct {
	refs int32
	live int32 // mixed: entries whose key is not Uninit

	// indexLen is the number of int32 slots at index, 0 when there is
	// no index. The index is a bare pointer, not a slice, to keep Array
	// within 80 bytes (TestArrayLayout).
	indexLen int32

	// packed layout (used iff entries == nil)
	elems []Value

	// mixed layout: entries in insertion order, a deleted one keeping
	// its place with an Uninit key. Never nil while mixed (Heap.NewMixed
	// and escalate make it).
	entries []arrayEntry
	// index is used once len(entries) > linearMax: indexLen slots, a
	// power of two at least 2·cap(entries), each 0 (empty) or a position
	// in entries plus one. Every entry is entered at most once, so at
	// least half the slots stay empty and a probe always ends. It is
	// rebuilt whenever entries is reallocated or compacted.
	index   *int32
	nextIdx int64 // next automatic integer key
}

// arrayEntry is one key/value pair of a mixed array. A live key is an
// Int or a Str, and the entry owns one reference to a counted string
// key; an Uninit key marks a deleted entry.
type arrayEntry struct {
	key, val Value
}

func (e *arrayEntry) deleted() bool { return e.key.Kind == types.KUninit }

// linearMax is the entry count up to which lookups scan entries and no
// index is allocated: up to 8, int keys scan as fast as they hash
// (string keys cross over near 5), and an index is an allocation only
// repeated lookups repay (DESIGN.md §6 has the measurement).
const linearMax = 8

// keySeed seeds the string-key hash for the life of the process. The
// hash only places positions in the index; iteration follows entries,
// so it never reaches guest output.
var keySeed = maphash.MakeSeed()

// IsPacked reports the layout kind.
func (a *Array) IsPacked() bool { return a.entries == nil }

// Kind returns the types-level array kind.
func (a *Array) Kind() types.ArrayKind {
	if a.IsPacked() {
		return types.ArrayPacked
	}
	return types.ArrayMixed
}

// Len returns the element count.
func (a *Array) Len() int {
	if a.IsPacked() {
		return len(a.elems)
	}
	return int(a.live)
}

// Refs returns the current reference count, 0 once freed.
func (a *Array) Refs() int32 { return liveRefs(a.refs) }

// keyOf normalizes a guest value used as a key: strings stay strings
// (borrowed), everything else becomes its integer value.
func keyOf(v Value) Value {
	if v.Kind == types.KStr {
		return v
	}
	return Int(v.ToInt())
}

func sameKey(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == types.KStr {
		s, t := a.AsStr(), b.AsStr()
		return s == t || s.Data == t.Data
	}
	return a.bits == b.bits
}

func hashKey(k Value) uint64 {
	if k.Kind == types.KStr {
		return maphash.String(keySeed, k.AsStr().Data)
	}
	x := uint64(k.AsInt()) * 0x9e3779b97f4a7c15 // Fibonacci hashing
	return x ^ x>>32
}

func (a *Array) slots() []int32 { return unsafe.Slice(a.index, a.indexLen) }

// find returns the position in entries of the normalized key k, or -1.
func (a *Array) find(k Value) int {
	if a.index == nil {
		for i := range a.entries {
			if sameKey(a.entries[i].key, k) {
				return i
			}
		}
		return -1
	}
	slots := a.slots()
	mask := uint64(len(slots) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		p := slots[i]
		if p == 0 {
			return -1
		}
		if sameKey(a.entries[p-1].key, k) {
			return int(p - 1)
		}
	}
}

// reindex rebuilds the index over entries, or drops it when a scan will
// do.
func (a *Array) reindex() {
	a.index, a.indexLen = nil, 0
	if len(a.entries) <= linearMax {
		return
	}
	n := 1
	for n < 2*cap(a.entries) {
		n <<= 1
	}
	slots := make([]int32, n)
	a.index, a.indexLen = &slots[0], int32(n)
	for i := range a.entries {
		if !a.entries[i].deleted() {
			a.enter(i)
		}
	}
}

// enter puts position pos in the index.
func (a *Array) enter(pos int) {
	slots := a.slots()
	mask := uint64(len(slots) - 1)
	i := hashKey(a.entries[pos].key) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = int32(pos + 1)
}

// add appends an entry for the normalized key k, which must be absent.
// It consumes the caller's reference to val and takes one of its own
// to k.
func (a *Array) add(k, val Value) {
	incRefVal(k)
	if len(a.entries) == cap(a.entries) {
		a.makeRoom()
	}
	a.entries = append(a.entries, arrayEntry{key: k, val: val})
	a.live++
	if k.Kind == types.KInt && k.AsInt() >= a.nextIdx {
		a.nextIdx = k.AsInt() + 1
	}
	switch {
	case a.index != nil:
		a.enter(len(a.entries) - 1)
	case len(a.entries) > linearMax:
		a.reindex()
	}
}

// makeRoom frees a slot at the end of a full entries: in place when at
// least half of them are deleted, else by reallocating. Either way the
// positions or the capacity change, so the index goes; add rebuilds it.
func (a *Array) makeRoom() {
	if n := len(a.entries); n > 0 && int(a.live) <= n/2 {
		live := a.entries[:0]
		for _, e := range a.entries {
			if !e.deleted() {
				live = append(live, e)
			}
		}
		clear(a.entries[len(live):])
		a.entries = live
	} else {
		a.entries = slices.Grow(a.entries, 1)
	}
	a.index, a.indexLen = nil, 0
}

// Get returns the element at key and whether it exists. The returned
// value's refcount is NOT incremented; callers that retain it must
// IncRef.
func (a *Array) Get(key Value) (Value, bool) {
	if a.IsPacked() {
		if key.Kind == types.KInt || key.Kind == types.KBool || key.Kind == types.KDbl {
			i := key.ToInt()
			if i >= 0 && i < int64(len(a.elems)) {
				return a.elems[i], true
			}
		}
		return Uninit(), false
	}
	if p := a.find(keyOf(key)); p >= 0 {
		return a.entries[p].val, true
	}
	return Uninit(), false
}

// GetIntKey is the packed fast path used by specialized JIT code.
func (a *Array) GetIntKey(i int64) (Value, bool) {
	if a.IsPacked() {
		if i >= 0 && i < int64(len(a.elems)) {
			return a.elems[i], true
		}
		return Uninit(), false
	}
	if p := a.find(Int(i)); p >= 0 {
		return a.entries[p].val, true
	}
	return Uninit(), false
}

// cowed returns the array to mutate: a itself when uniquely
// referenced, otherwise a fresh clone with refcount 1 (the caller owns
// rebinding it). Element refcounts are bumped because the clone shares
// them. The heap records the copy for COW-observability tests.
func (a *Array) cowed(h *Heap) *Array {
	if a.refs <= 1 {
		return a
	}
	h.CowCopies++
	return a.clone(h)
}

// clone returns a copy of a with one reference, allocated through h; it
// takes a reference to every element and key it shares.
func (a *Array) clone(h *Heap) *Array {
	if a.IsPacked() {
		cl := h.NewPacked(len(a.elems))
		cl.elems = append(cl.elems, a.elems...)
		for _, v := range cl.elems {
			incRefVal(v)
		}
		return cl
	}
	cl := h.NewMixed(cap(a.entries))
	cl.entries = append(cl.entries, a.entries...)
	for _, e := range cl.entries {
		incRefVal(e.key)
		incRefVal(e.val)
	}
	cl.live, cl.nextIdx = a.live, a.nextIdx
	cl.reindex() // a reused box's capacity may exceed a's
	return cl
}

// escalate converts a packed array to mixed layout in place, with room
// for the entry about to be added.
func (a *Array) escalate() {
	if !a.IsPacked() {
		return
	}
	n := len(a.elems)
	a.entries = make([]arrayEntry, n, n+1)
	for i, v := range a.elems {
		a.entries[i] = arrayEntry{key: Int(int64(i)), val: v}
	}
	a.live = int32(n)
	a.nextIdx = int64(n)
	a.elems = nil
	a.reindex()
}

// Set stores val at key with COW, returning the array to rebind
// (possibly a clone). It consumes the caller's reference to val,
// borrows key (a new entry takes its own reference to it) and releases
// any overwritten element.
func (a *Array) Set(h *Heap, key Value, val Value) *Array {
	out := a.cowed(h)
	if out != a {
		h.decArrayRef(a)
	}
	if out.IsPacked() {
		if key.Kind == types.KInt || key.Kind == types.KBool {
			i := key.ToInt()
			if i >= 0 && i < int64(len(out.elems)) {
				old := out.elems[i]
				out.elems[i] = val
				h.DecRef(old)
				return out
			}
			if i == int64(len(out.elems)) {
				out.elems = append(out.elems, val)
				return out
			}
		}
		out.escalate()
	}
	out.setMixed(h, keyOf(key), val)
	return out
}

// setMixed stores val under the normalized key k of a mixed array,
// releasing the element it replaces.
func (a *Array) setMixed(h *Heap, k, val Value) {
	if p := a.find(k); p >= 0 {
		old := a.entries[p].val
		a.entries[p].val = val
		h.DecRef(old)
		return
	}
	a.add(k, val)
}

// Append adds val with the next integer key (the PHP `$a[] = $v`
// form), with COW. Consumes the caller's reference to val.
func (a *Array) Append(h *Heap, val Value) *Array {
	out := a.cowed(h)
	if out != a {
		h.decArrayRef(a)
	}
	if out.IsPacked() {
		out.elems = append(out.elems, val)
		return out
	}
	// nextIdx exceeds every int key until a key of PHP_INT_MAX wraps it
	// around; after that the key may be taken, so look it up.
	out.setMixed(h, Int(out.nextIdx), val)
	return out
}

// Remove deletes key with COW, releasing the element and the entry's
// key.
func (a *Array) Remove(h *Heap, key Value) *Array {
	out := a.cowed(h)
	if out != a {
		h.decArrayRef(a)
	}
	if out.IsPacked() {
		i := key.ToInt()
		if key.Kind != types.KInt || i < 0 || i >= int64(len(out.elems)) {
			return out
		}
		// Any removal makes the array mixed, as in HHVM: even with the
		// last element gone, the next automatic key stays where it was.
		out.escalate()
	}
	if p := out.find(keyOf(key)); p >= 0 {
		e := out.entries[p]
		out.entries[p] = arrayEntry{key: Uninit(), val: Uninit()}
		out.live--
		h.DecRef(e.val)
		h.DecRef(e.key)
	}
	return out
}

// Each iterates live entries in insertion order. The callback gets
// borrowed references: a string key is the entry's own.
func (a *Array) Each(f func(key Value, val Value) bool) {
	if a.IsPacked() {
		for i, v := range a.elems {
			if !f(Int(int64(i)), v) {
				return
			}
		}
		return
	}
	for i := range a.entries {
		if e := &a.entries[i]; !e.deleted() && !f(e.key, e.val) {
			return
		}
	}
}

// Iter is a stable iterator over an array, used by the foreach
// bytecodes. It holds its own reference to the array; the zero Iter
// is a free iterator slot.
type Iter struct {
	arr *Array
	pos int
}

// Iter starts an iterator over a at its first live entry (a deleted
// one may lead); the caller transfers one reference of a to the
// iterator.
func (a *Array) Iter() Iter {
	it := Iter{arr: a}
	it.Valid()
	return it
}

// Valid reports whether the iterator points at a live entry,
// advancing past deleted ones.
func (it *Iter) Valid() bool {
	if it.arr.IsPacked() {
		return it.pos < len(it.arr.elems)
	}
	for it.pos < len(it.arr.entries) && it.arr.entries[it.pos].deleted() {
		it.pos++
	}
	return it.pos < len(it.arr.entries)
}

// Next advances; returns whether still valid.
func (it *Iter) Next() bool {
	it.pos++
	return it.Valid()
}

// Key and Val return borrowed references to the current entry.
func (it *Iter) Key() Value {
	if it.arr.IsPacked() {
		return Int(int64(it.pos))
	}
	return it.arr.entries[it.pos].key
}

func (it *Iter) Val() Value {
	if it.arr.IsPacked() {
		return it.arr.elems[it.pos]
	}
	return it.arr.entries[it.pos].val
}

// Arr returns the underlying array (for releasing at IterFree), nil
// for a free slot.
func (it *Iter) Arr() *Array { return it.arr }
