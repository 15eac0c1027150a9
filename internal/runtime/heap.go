package runtime

import (
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/types"
)

// Heap is the guest heap of one VM: it allocates and frees guest
// strings, arrays and objects and tracks reference-counting activity.
// PHP's refcounting is observable (destructors fire at the exact point
// the last reference dies; COW copies happen at refcount>1), so the
// heap exposes counters that the tests and the RCE-correctness checks
// use.
// A heap is confined to its VM's goroutine and needs no locking.
type Heap struct {
	// IncRefs and DecRefs count executed refcount operations — the
	// quantity the RCE pass exists to reduce.
	IncRefs uint64
	DecRefs uint64
	// Destructs counts destructor invocations; CowCopies counts
	// copy-on-write array clones; Frees counts deallocations.
	Destructs uint64
	CowCopies uint64
	Frees     uint64
	// LiveObjs, LiveStrs and LiveArrs count boxes allocated through
	// this heap minus boxes it freed; all read zero between requests.
	LiveObjs int64
	LiveStrs int64
	LiveArrs int64
	// OverReleases counts refcount operations on a box that is already
	// dead: a DecRef that takes a count below zero, and any IncRef or
	// DecRef that reaches a parked box. Always zero unless some tier
	// broke the ownership discipline.
	OverReleases uint64

	// OnDestruct runs a guest destructor for obj. Set by the VM
	// (destructors are guest code and need the execution engine).
	OnDestruct func(obj *Object)

	// Free lists (DESIGN.md §6): the last DecRef parks the scrubbed box
	// here and the constructors pop it, LIFO. Objects are listed by the
	// declared slot count of the class they died as, so a popped box's
	// slot array always fits; arrays by layout, each with its element
	// storage. parked is the bytes the lists hold.
	freeStrs   []*Str
	freeObjs   [][]*Object
	freePacked []*Array
	freeMixed  []*Array
	parked     uintptr

	// bufs holds the string buffers' lists, made when the heap first
	// parks one (compile-time folding runs on heaps that never do).
	bufs *bufLists
}

// bufLists are a heap's string buffers, one list per size class
// (minBuf << i bytes), each entry the start of a buffer of exactly that
// capacity; parked is the bytes they hold.
type bufLists struct {
	free   [bufClasses][]*byte
	parked uintptr
}

// maxParkedBytes bounds what a heap's free lists may hold (string
// headers, objects and their slot arrays, array boxes and their element
// storage); a box that would exceed it is left to the host collector.
// It is the smallest bound at which the site's requests stop
// allocating fewer boxes: their whole working set, at most 138 objects,
// 60 string headers, 25 mixed and 3 packed arrays (DESIGN.md §6 has the
// sweep).
const maxParkedBytes = 32 << 10

// String buffers come in powers of two from minBuf to maxBuf bytes; a
// longer string's buffer is the host collector's. maxParkedBufBytes
// bounds what the buffer lists may hold: the smallest bound at which
// the site's requests stop allocating fewer buffers (DESIGN.md §6,
// "String bytes on the lists", has the sweep).
const (
	minBufShift       = 4
	minBuf            = 1 << minBufShift
	maxBuf            = 4 << 10
	bufClasses        = 9 // log2(maxBuf / minBuf) + 1
	maxParkedBufBytes = 12 << 10
)

// poisonByte overwrites a parked buffer in a test binary, so a view of
// a string read past the release of its last reference reads garbage
// there rather than the bytes it had (DESIGN.md §6).
const poisonByte = 0xDB

var poisonBufs = testing.Testing()

// deadRefs is the count of a freed box. It is far enough below zero
// that a stray IncRef cannot revive the box and no DecRef can free it
// twice; the constructors check it when they reuse a box.
const deadRefs = -1 << 30

// liveRefs is the count a box reports: a dead box has none.
func liveRefs(refs int32) int32 { return max(refs, 0) }

const (
	strBytes    = unsafe.Sizeof(Str{})
	objectBytes = unsafe.Sizeof(Object{})
	valueBytes  = unsafe.Sizeof(Value{})
	arrayBytes  = unsafe.Sizeof(Array{})
	entryBytes  = unsafe.Sizeof(arrayEntry{})
)

// NewHeap returns a fresh heap.
func NewHeap() *Heap { return &Heap{} }

// NewStr allocates a counted guest string holding a copy of s, in a
// buffer of its own, with one reference.
func (h *Heap) NewStr(s string) Value {
	return h.newStrBuf(append(h.strBuf(len(s)), s...))
}

// newStrBuf makes a counted string, with one reference, of the bytes
// rendered into buf: a buffer from strBuf or appendBuf, which the
// string holds from here on, its unused capacity the string's spare
// room. An empty result keeps no buffer (strBuf(0) makes none).
func (h *Heap) newStrBuf(buf []byte) Value {
	h.LiveStrs++
	var str *Str
	if n := len(h.freeStrs); n == 0 {
		str = &Str{}
	} else {
		str = h.freeStrs[n-1]
		h.freeStrs[n-1] = nil
		h.freeStrs = h.freeStrs[:n-1]
		h.parked -= strBytes
		if str.refs != deadRefs {
			h.OverReleases++
		}
	}
	str.refs = 1
	str.setBuffer(buf)
	return StrV(str)
}

// strBuf returns an empty buffer with room for n bytes: the last one
// parked in n's size class, a new one of the class's size, or, past
// maxBuf, exactly n bytes from the collector.
func (h *Heap) strBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > maxBuf {
		return make([]byte, 0, n)
	}
	c := bufClass(n)
	size := minBuf << c
	if h.bufs == nil || len(h.bufs.free[c]) == 0 {
		return make([]byte, 0, size)
	}
	list := h.bufs.free[c]
	p := list[len(list)-1]
	list[len(list)-1] = nil
	h.bufs.free[c] = list[:len(list)-1]
	h.bufs.parked -= uintptr(size)
	return unsafe.Slice(p, size)[:0]
}

// appendBuf is strBuf for a string that is being appended to: past
// maxBuf it returns twice the room, so a run of appends copies each
// byte a bounded number of times, as the classes below maxBuf, each
// twice the last, already do.
func (h *Heap) appendBuf(need int) []byte {
	if need > maxBuf {
		return make([]byte, 0, 2*need)
	}
	return h.strBuf(need)
}

// bufClass is the size class of a buffer for n bytes, 0 < n <= maxBuf.
func bufClass(n int) int {
	if n <= minBuf {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// parkBuf puts buf, which its holder no longer reads, on its class's
// list if its capacity is a class size and the bound allows; any other
// buffer is left to the collector. In a test binary it is poisoned
// first.
func (h *Heap) parkBuf(buf []byte) {
	size := cap(buf)
	if size < minBuf || size > maxBuf || size&(size-1) != 0 {
		return
	}
	if h.bufs == nil {
		h.bufs = &bufLists{}
	}
	if h.bufs.parked+uintptr(size) > maxParkedBufBytes {
		return
	}
	buf = buf[:size]
	if poisonBufs {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
	c := bufClass(size)
	h.bufs.parked += uintptr(size)
	h.bufs.free[c] = append(h.bufs.free[c], unsafe.SliceData(buf))
}

// NewObject allocates an instance of c with default-initialized
// properties, the class's root shape, and refcount 1.
func (h *Heap) NewObject(c *Class) *Object {
	h.LiveObjs++
	n := len(c.PropInit)
	if n >= len(h.freeObjs) || len(h.freeObjs[n]) == 0 {
		props := make([]Value, n)
		copy(props, c.PropInit)
		return &Object{Class: c, Shape: c.RootShape, Props: props, refs: 1}
	}
	list := h.freeObjs[n]
	o := list[len(list)-1]
	list[len(list)-1] = nil
	h.freeObjs[n] = list[:len(list)-1]
	h.parked -= o.parkedBytes()
	if o.refs != deadRefs {
		h.OverReleases++
	}
	o.Class, o.Shape, o.Props, o.refs = c, c.RootShape, o.Props[:n], 1
	copy(o.Props, c.PropInit)
	return o
}

func (o *Object) parkedBytes() uintptr {
	return objectBytes + uintptr(cap(o.Props))*valueBytes
}

// NewPacked returns an empty packed array with room for n elements and
// one reference.
func (h *Heap) NewPacked(n int) *Array {
	h.LiveArrs++
	a := h.reuseArray(&h.freePacked)
	if a == nil {
		return &Array{refs: 1, elems: make([]Value, 0, n)}
	}
	if cap(a.elems) < n {
		a.elems = make([]Value, 0, n)
	}
	return a
}

// NewPackedOf returns a packed array of vals, taking over the caller's
// references to them (not the slice).
func (h *Heap) NewPackedOf(vals []Value) *Array {
	a := h.NewPacked(len(vals))
	a.elems = append(a.elems, vals...)
	return a
}

// NewMixed returns an empty mixed array with room for n entries and one
// reference: n is NewArray's capacity hint, the entry count of the
// literal it builds.
func (h *Heap) NewMixed(n int) *Array {
	h.LiveArrs++
	a := h.reuseArray(&h.freeMixed)
	if a == nil {
		return &Array{refs: 1, entries: make([]arrayEntry, 0, n)}
	}
	if cap(a.entries) < n {
		a.entries = make([]arrayEntry, 0, n)
	}
	return a
}

// reuseArray pops the box parked last on list, with one reference, or
// returns nil.
func (h *Heap) reuseArray(list *[]*Array) *Array {
	n := len(*list)
	if n == 0 {
		return nil
	}
	a := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	h.parked -= a.parkedBytes()
	if a.refs != deadRefs {
		h.OverReleases++
	}
	a.refs = 1
	return a
}

func (a *Array) parkedBytes() uintptr {
	if a.IsPacked() {
		return arrayBytes + uintptr(cap(a.elems))*valueBytes
	}
	return arrayBytes + uintptr(cap(a.entries))*entryBytes
}

// incRefVal bumps a refcount without heap accounting (used by clone,
// which is itself accounted as a COW copy).
func incRefVal(v Value) {
	switch v.Kind {
	case types.KStr:
		if !v.AsStr().Static() {
			v.AsStr().refs++
		}
	case types.KArr:
		v.AsArr().refs++
	case types.KObj:
		v.AsObj().refs++
	}
}

// IncRef increments the reference count of v if counted.
func (h *Heap) IncRef(v Value) {
	switch v.Kind {
	case types.KStr:
		if v.AsStr().Static() {
			return
		}
		h.IncRefs++
		v.AsStr().refs++
	case types.KArr:
		h.IncRefs++
		v.AsArr().refs++
	case types.KObj:
		h.IncRefs++
		v.AsObj().refs++
	}
}

// DecRef decrements the reference count of v, freeing (and running
// destructors) when it reaches zero.
func (h *Heap) DecRef(v Value) {
	switch v.Kind {
	case types.KStr:
		s := v.AsStr()
		if s.Static() {
			return
		}
		h.DecRefs++
		s.refs--
		if s.refs <= 0 {
			h.freeStr(s)
		}
	case types.KArr:
		h.DecRefs++
		h.decArrayRef(v.AsArr())
	case types.KObj:
		h.DecRefs++
		o := v.AsObj()
		o.refs--
		if o.refs <= 0 {
			h.destroyObject(o)
		}
	}
}

// overReleased reports (and counts) a DecRef that took *refs below
// zero, undoing it so a dead box keeps its dead count.
func (h *Heap) overReleased(refs *int32) bool {
	if *refs == 0 {
		return false
	}
	*refs++
	h.OverReleases++
	return true
}

func (h *Heap) freeStr(s *Str) {
	if h.overReleased(&s.refs) {
		return
	}
	h.Frees++
	h.LiveStrs--
	if s.Data != "" {
		h.parkBuf(s.buffer())
	}
	s.Data, s.refs, s.spare = "", deadRefs, 0
	if h.parked+strBytes <= maxParkedBytes {
		h.parked += strBytes
		h.freeStrs = append(h.freeStrs, s)
	}
}

// decArrayRef releases one reference to a without counting a DecRef
// op (callers that model a guest DecRef instruction count it). The
// last one releases the elements (a destructor may allocate arrays
// meanwhile; this box is on no list yet), scrubs the storage to its
// capacity and parks the box, with that storage, on its layout's list.
func (h *Heap) decArrayRef(a *Array) {
	a.refs--
	if a.refs > 0 || h.overReleased(&a.refs) {
		return
	}
	h.Frees++
	h.LiveArrs--
	a.refs = deadRefs
	list := &h.freeMixed
	if a.IsPacked() {
		for _, e := range a.elems {
			h.DecRef(e)
		}
		clear(a.elems[:cap(a.elems)])
		a.elems = a.elems[:0]
		list = &h.freePacked
	} else {
		for _, e := range a.entries {
			h.DecRef(e.val)
			h.DecRef(e.key)
		}
		clear(a.entries[:cap(a.entries)])
		a.entries, a.index, a.indexLen = a.entries[:0], nil, 0
	}
	a.live, a.nextIdx = 0, 0
	if size := a.parkedBytes(); h.parked+size <= maxParkedBytes {
		h.parked += size
		*list = append(*list, a)
	}
}

// destroyObject runs when o's count reaches zero: the destructor, then
// the release of the property values, then the box itself.
func (h *Heap) destroyObject(o *Object) {
	if h.overReleased(&o.refs) {
		return
	}
	if o.Class.HasDtor && h.OnDestruct != nil && !o.destructed {
		o.destructed = true
		// The heap lends the object one reference for the duration of
		// its destructor, as PHP does. If more than that is left, the
		// destructor stored $this somewhere: the object lives on with
		// the references it was given, and is not destructed again.
		o.refs = 1
		h.Destructs++
		h.OnDestruct(o)
		o.refs--
		if o.refs > 0 || h.overReleased(&o.refs) {
			return
		}
	}
	h.LiveObjs--
	h.Frees++
	for _, p := range o.Props {
		h.DecRef(p)
	}
	n := len(o.Class.PropInit)
	clear(o.Props[:cap(o.Props)])
	o.Class, o.Shape, o.destructed, o.refs = nil, nil, false, deadRefs
	if size := o.parkedBytes(); h.parked+size <= maxParkedBytes {
		h.parked += size
		for len(h.freeObjs) <= n {
			h.freeObjs = append(h.freeObjs, nil)
		}
		h.freeObjs[n] = append(h.freeObjs[n], o)
	}
}

// Stats is a snapshot of heap counters.
type Stats struct {
	IncRefs, DecRefs, Destructs, CowCopies, Frees, OverReleases uint64
	LiveObjs, LiveStrs, LiveArrs                                int64
}

// Snapshot returns the current counters.
func (h *Heap) Snapshot() Stats {
	return Stats{
		IncRefs: h.IncRefs, DecRefs: h.DecRefs, Destructs: h.Destructs,
		CowCopies: h.CowCopies, Frees: h.Frees, OverReleases: h.OverReleases,
		LiveObjs: h.LiveObjs, LiveStrs: h.LiveStrs, LiveArrs: h.LiveArrs,
	}
}
