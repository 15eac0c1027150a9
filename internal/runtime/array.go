package runtime

import "repro/internal/types"

// Array is the guest array. PHP arrays are ordered maps with value
// semantics implemented by copy-on-write: mutation of an array whose
// refcount exceeds one first clones it. Like HHVM, two layouts exist:
//
//   - packed: keys are exactly 0..n-1, elements in a slice;
//   - mixed: an insertion-ordered hash of int and string keys.
//
// The JIT specializes array access on the layout kind.
type Array struct {
	refs int32

	// packed layout (used iff mixed == nil)
	elems []Value

	// mixed layout
	mixed   map[arrayKey]int // key -> index into entries
	entries []arrayEntry     // insertion order; deleted entries tombstoned
	nextIdx int64            // next automatic integer key
	live    int              // non-tombstoned entry count
}

type arrayKey struct {
	s     string
	i     int64
	isStr bool
}

type arrayEntry struct {
	key  arrayKey
	val  Value
	dead bool
}

// NewPacked returns a fresh packed array taking ownership of elems
// (their refcounts are not changed).
func NewPacked(elems []Value) *Array {
	return &Array{refs: 1, elems: elems}
}

// NewMixed returns a fresh empty mixed array.
func NewMixed() *Array {
	return &Array{refs: 1, mixed: make(map[arrayKey]int)}
}

// IsPacked reports the layout kind.
func (a *Array) IsPacked() bool { return a.mixed == nil }

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
	return a.live
}

// Refs returns the current reference count, 0 once freed.
func (a *Array) Refs() int32 { return liveRefs(a.refs) }

func keyOf(v Value) arrayKey {
	if v.Kind == types.KStr {
		return arrayKey{s: v.AsStr().Data, isStr: true}
	}
	return arrayKey{i: v.ToInt()}
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
	if idx, ok := a.mixed[keyOf(key)]; ok {
		return a.entries[idx].val, true
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
	if idx, ok := a.mixed[arrayKey{i: i}]; ok {
		return a.entries[idx].val, true
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
	cl := a.clone()
	return cl
}

func (a *Array) clone() *Array {
	cl := &Array{refs: 1, nextIdx: a.nextIdx, live: a.live}
	if a.IsPacked() {
		cl.elems = make([]Value, len(a.elems))
		copy(cl.elems, a.elems)
		for _, v := range cl.elems {
			incRefVal(v)
		}
		return cl
	}
	cl.mixed = make(map[arrayKey]int, len(a.mixed))
	for k, v := range a.mixed {
		cl.mixed[k] = v
	}
	cl.entries = make([]arrayEntry, len(a.entries))
	copy(cl.entries, a.entries)
	for _, e := range cl.entries {
		if !e.dead {
			incRefVal(e.val)
		}
	}
	return cl
}

// escalate converts a packed array to mixed layout in place.
func (a *Array) escalate() {
	if !a.IsPacked() {
		return
	}
	a.mixed = make(map[arrayKey]int, len(a.elems))
	a.entries = make([]arrayEntry, 0, len(a.elems))
	for i, v := range a.elems {
		k := arrayKey{i: int64(i)}
		a.mixed[k] = len(a.entries)
		a.entries = append(a.entries, arrayEntry{key: k, val: v})
	}
	a.live = len(a.elems)
	a.nextIdx = int64(len(a.elems))
	a.elems = nil
}

// Set stores val at key with COW, returning the array to rebind
// (possibly a clone). It consumes the caller's reference to val and
// releases any overwritten element.
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
	k := keyOf(key)
	if idx, ok := out.mixed[k]; ok {
		old := out.entries[idx].val
		out.entries[idx].val = val
		h.DecRef(old)
		return out
	}
	out.mixed[k] = len(out.entries)
	out.entries = append(out.entries, arrayEntry{key: k, val: val})
	out.live++
	if !k.isStr && k.i >= out.nextIdx {
		out.nextIdx = k.i + 1
	}
	return out
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
	k := arrayKey{i: out.nextIdx}
	out.nextIdx++
	out.mixed[k] = len(out.entries)
	out.entries = append(out.entries, arrayEntry{key: k, val: val})
	out.live++
	return out
}

// Remove deletes key with COW.
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
		if i == int64(len(out.elems))-1 {
			h.DecRef(out.elems[i])
			out.elems = out.elems[:i]
			return out
		}
		out.escalate()
	}
	k := keyOf(key)
	if idx, ok := out.mixed[k]; ok {
		h.DecRef(out.entries[idx].val)
		out.entries[idx].dead = true
		out.entries[idx].val = Uninit()
		delete(out.mixed, k)
		out.live--
	}
	return out
}

// Each iterates live entries in insertion order. The callback gets
// borrowed references.
func (a *Array) Each(f func(key Value, val Value) bool) {
	if a.IsPacked() {
		for i, v := range a.elems {
			if !f(Int(int64(i)), v) {
				return
			}
		}
		return
	}
	for _, e := range a.entries {
		if e.dead {
			continue
		}
		if !f(e.key.Value(), e.val) {
			return
		}
	}
}

// Value materializes an arrayKey as a guest value. String keys are
// interned (static) since they originate from guest strings anyway.
func (k arrayKey) Value() Value {
	if k.isStr {
		return StrV(InternStr(k.s))
	}
	return Int(k.i)
}

// Iter is a stable iterator over an array, used by the foreach
// bytecodes. It holds its own reference to the array; the zero Iter
// is a free iterator slot.
type Iter struct {
	arr *Array
	pos int
}

// Iter starts an iterator over a; the caller transfers one reference
// of a to the iterator.
func (a *Array) Iter() Iter { return Iter{arr: a} }

// Valid reports whether the iterator points at a live entry,
// advancing past tombstones.
func (it *Iter) Valid() bool {
	if it.arr.IsPacked() {
		return it.pos < len(it.arr.elems)
	}
	for it.pos < len(it.arr.entries) && it.arr.entries[it.pos].dead {
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
	return it.arr.entries[it.pos].key.Value()
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
