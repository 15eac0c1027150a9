package runtime

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/types"
)

// TestArrayLayout pins the sizes DESIGN.md §6 "Arrays" prices: an
// array box no larger than it was with a Go map behind it, and an entry
// of exactly two Values (no tombstone flag, no hash).
func TestArrayLayout(t *testing.T) {
	if got := unsafe.Sizeof(Array{}); got > 80 {
		t.Errorf("unsafe.Sizeof(Array{}) = %d, want <= 80", got)
	}
	if got := unsafe.Sizeof(arrayEntry{}); got != 48 {
		t.Errorf("unsafe.Sizeof(arrayEntry{}) = %d, want 48", got)
	}
}

// checkLayout holds a mixed array to the invariants find relies on: an
// index whenever there are more than linearMax entries, at least twice
// the entries' capacity and a power of two, and every live entry found
// at its own position, whichever way find looks.
func checkLayout(t *testing.T, a *Array) {
	t.Helper()
	if a.IsPacked() {
		return
	}
	live := 0
	for i := range a.entries {
		if a.entries[i].deleted() {
			continue
		}
		live++
		if p := a.find(a.entries[i].key); p != i {
			t.Fatalf("entry %d (%s) is found at %d", i, a.entries[i].key.DebugString(), p)
		}
	}
	if live != int(a.live) {
		t.Fatalf("%d live entries, the array counts %d", live, a.live)
	}
	n := int(a.indexLen)
	if a.index == nil && len(a.entries) > linearMax || (a.index == nil) != (n == 0) {
		t.Fatalf("%d entries with an index of %d slots", len(a.entries), n)
	}
	if a.index != nil && (n&(n-1) != 0 || n < 2*cap(a.entries)) {
		t.Fatalf("index of %d slots over %d entries of capacity %d", n, len(a.entries), cap(a.entries))
	}
}

// TestMixedCrossesTheIndexThreshold grows arrays past linearMax every
// way an entry arrives (literal, escalation, append, compaction) and
// checks both lookup paths after each step.
func TestMixedCrossesTheIndexThreshold(t *testing.T) {
	h := NewHeap()
	for _, hint := range []int{0, 4, 9, 17, 33} {
		a := h.NewMixed(hint)
		for i := 0; i < 40; i++ {
			k := h.NewStr(fmt.Sprint("k", i))
			a = a.Set(h, k, Int(int64(i)))
			h.DecRef(k)
			a = a.Append(h, Int(int64(-i)))
			checkLayout(t, a)
		}
		// Delete most, then add until the full slice compacts in place.
		for i := 0; i < 36; i++ {
			k := h.NewStr(fmt.Sprint("k", i))
			a = a.Remove(h, k)
			h.DecRef(k)
			a = a.Remove(h, Int(int64(i)))
			checkLayout(t, a)
		}
		for i := 0; i < 100; i++ {
			a = a.Set(h, Int(int64(1000+i)), Int(int64(i)))
			checkLayout(t, a)
		}
		if a.Len() != 8+100 {
			t.Errorf("hint %d: %d entries, want 108", hint, a.Len())
		}
		h.DecRef(ArrV(a))
	}
	for n := 0; n < 12; n++ {
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = Int(int64(i))
		}
		a := h.NewPackedOf(elems).Set(h, StrV(InternStr("x")), Int(1))
		checkLayout(t, a)
		if v, ok := a.Get(Int(int64(n - 1))); n > 0 && (!ok || v.AsInt() != int64(n-1)) {
			t.Errorf("escalated %d elements: [%d] = %s, %v", n, n-1, v.DebugString(), ok)
		}
		h.DecRef(ArrV(a))
	}
	if h.LiveStrs != 0 || h.OverReleases != 0 {
		t.Errorf("%d live strings, %d over-releases", h.LiveStrs, h.OverReleases)
	}
}

// TestIteratedKeysStayOutOfTheInternTable: a mixed array hands out the
// key it stores, so walking dynamic string keys (foreach, implode,
// array_keys, union) adds nothing to the process-wide static table,
// and every key dies with its array.
func TestIteratedKeysStayOutOfTheInternTable(t *testing.T) {
	interned := func() (n int) {
		internTable.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	before := interned()
	h := NewHeap()
	for round := 0; round < 10; round++ {
		a := h.NewMixed(0)
		for i := 0; i < 1000; i++ {
			k := h.NewStr(fmt.Sprintf("dyn-%d-%d", round, i))
			a = a.Set(h, k, Int(int64(i)))
			h.DecRef(k)
		}
		h.IncRef(ArrV(a)) // the iterator's reference
		it := a.Iter()
		for ok := it.Valid(); ok; ok = it.Next() {
			k := it.Key()
			h.IncRef(k) // what IterKey hands the guest
			h.DecRef(k)
		}
		h.DecRef(ArrV(it.Arr()))
		var seen int
		a.Each(func(k, _ Value) bool {
			if k.Kind == types.KStr && !k.AsStr().Static() {
				seen++
			}
			return true
		})
		if seen != 1000 {
			t.Fatalf("round %d: Each handed out %d counted keys, want 1000", round, seen)
		}
		h.DecRef(ArrV(a))
	}
	if after := interned(); after != before {
		t.Errorf("iterating 10,000 dynamic keys grew the intern table from %d to %d", before, after)
	}
	if h.LiveStrs != 0 || h.OverReleases != 0 {
		t.Errorf("%d live strings, %d over-releases", h.LiveStrs, h.OverReleases)
	}
}

// modelKey and arrayModel are FuzzArrayOps' reference: a plain ordered
// slice of key/value pairs with a linear lookup and the next automatic
// key, updated as PHP (and Array) update it.
type modelKey struct {
	s     string
	i     int64
	isStr bool
}

type modelEntry struct {
	key modelKey
	val string // Value.DebugString of the stored element
}

type arrayModel struct {
	entries []modelEntry
	next    int64
}

func keyModel(k Value) modelKey {
	if k.Kind == types.KStr {
		return modelKey{s: k.AsStr().Data, isStr: true}
	}
	return modelKey{i: k.ToInt()}
}

func (m *arrayModel) find(k modelKey) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == k })
}

func (m *arrayModel) set(k modelKey, val string) {
	if p := m.find(k); p >= 0 {
		m.entries[p].val = val
		return
	}
	m.entries = append(m.entries, modelEntry{k, val})
	if !k.isStr && k.i >= m.next {
		m.next = k.i + 1 // wraps past PHP_INT_MAX, as Array's does
	}
}

func (m *arrayModel) remove(k modelKey) {
	if p := m.find(k); p >= 0 {
		m.entries = slices.Delete(m.entries, p, p+1)
	}
}

func (m *arrayModel) clone() arrayModel {
	return arrayModel{entries: slices.Clone(m.entries), next: m.next}
}

// compare checks a against m: length, every lookup, and the order and
// keys of both iteration interfaces.
func (m *arrayModel) compare(t *testing.T, a *Array, what string) {
	t.Helper()
	if a.Len() != len(m.entries) {
		t.Fatalf("%s: Len %d, model %d", what, a.Len(), len(m.entries))
	}
	var viaIter, viaEach []modelEntry
	it := a.Iter()
	if len(m.entries) > 0 && keyModel(it.Key()) != m.entries[0].key { // IterInit reads before any Valid
		t.Fatalf("%s: a new iterator starts at %s, model %v", what, it.Key().DebugString(), m.entries[0].key)
	}
	for ok := it.Valid(); ok; ok = it.Next() {
		viaIter = append(viaIter, modelEntry{keyModel(it.Key()), it.Val().DebugString()})
	}
	a.Each(func(k, v Value) bool {
		viaEach = append(viaEach, modelEntry{keyModel(k), v.DebugString()})
		return true
	})
	if !slices.Equal(viaIter, m.entries) || !slices.Equal(viaEach, m.entries) {
		t.Fatalf("%s: iteration\n  Iter  %v\n  Each  %v\n  model %v", what, viaIter, viaEach, m.entries)
	}
	for _, e := range m.entries {
		k := Int(e.key.i)
		if e.key.isStr {
			k = StrV(&Str{Data: e.key.s, refs: 1}) // a distinct box: keys compare by bytes
		}
		if v, ok := a.Get(k); !ok || v.DebugString() != e.val {
			t.Fatalf("%s: Get(%v) = %s, %v; model %s", what, e.key, v.DebugString(), ok, e.val)
		}
	}
	checkLayout(t, a)
}

// FuzzArrayOps runs a byte-driven sequence of Set, Append, Remove, Get,
// copy-on-write, iteration and free-and-rebuild over one array at a
// time against arrayModel, all on one heap, so that the boxes freed by
// copy-on-write and rebuilds come back from its free lists. Every freed
// box must be scrubbed to its capacity, and the heap must balance with
// no over-release. The first byte (and a rebuild's) picks the start: a
// literal's NewMixed(hint), a packed array of 0..11 elements escalated
// by a string key, or such a list left packed.
func FuzzArrayOps(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3, 1, 4, 2, 6, 0, 5, 3, 6})
	f.Add([]byte{16, 6, 12, 2, 10, 1, 7, 4, 14, 8, 1, 9, 5})
	f.Add([]byte{9, 0, 3, 7, 0, 7, 5, 1, 9, 1, 9, 2, 7, 3, 3, 0, 11, 8, 4, 6, 5})
	f.Add([]byte{3, 6, 40, 1, 1, 3, 7, 7, 22, 1, 5, 0, 1, 8, 0, 7, 20, 0, 1, 1, 7, 7, 0, 0, 4, 2, 1, 5, 0, 0})
	f.Add([]byte{134, 1, 3, 0, 1, 5, 0, 7, 129, 0, 1, 4, 0, 7, 140, 0, 4, 1, 3, 7, 9, 0, 1, 9, 0, 5, 0, 0})
	f.Add([]byte("\xea2001")) // a list loses its last element, then appends: key 9, not 8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := NewHeap()
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			pos++
			return data[pos-1], true
		}
		// key returns a borrowed key (the caller releases its own
		// reference after the operation) drawn from a small domain, so
		// that operations meet: small, negative and extreme ints, counted
		// and static strings.
		key := func(b byte) Value {
			n := int64((b >> 2) % 24)
			switch b % 4 {
			case 0, 1:
				return Int(n - 4)
			case 2:
				return h.NewStr(fmt.Sprint("k", n))
			default:
				return []Value{Int(math.MaxInt64), Int(math.MinInt64), Int(1 << 40), StrV(InternStr(fmt.Sprint("s", n%4)))}[n%4]
			}
		}
		val := func(b byte) Value {
			if b&1 != 0 {
				return Int(int64(b >> 1))
			}
			return h.NewStr(fmt.Sprint("v", b>>1))
		}

		build := func(start byte) (*Array, arrayModel) {
			var m arrayModel
			if start&1 != 0 {
				return h.NewMixed(int((start >> 1) % 40)), m
			}
			elems := make([]Value, (start>>1)%12)
			for i := range elems {
				elems[i] = Int(int64(i))
				m.set(modelKey{i: int64(i)}, elems[i].DebugString())
			}
			a := h.NewPackedOf(elems)
			if start&0x80 != 0 {
				return a, m
			}
			m.set(modelKey{s: "esc", isStr: true}, Int(-1).DebugString())
			return a.Set(h, StrV(InternStr("esc")), Int(-1)), m
		}
		start, _ := next()
		a, m := build(start)
		for step := 0; ; step++ {
			op, ok := next()
			if !ok {
				break
			}
			b1, _ := next()
			b2, _ := next()
			what := fmt.Sprintf("step %d op %d", step, op%8)
			switch op % 8 {
			case 0:
				k, v := key(b1), val(b2)
				m.set(keyModel(k), v.DebugString())
				a = a.Set(h, k, v)
				h.DecRef(k)
			case 1:
				v := val(b1)
				m.set(modelKey{i: m.next}, v.DebugString())
				a = a.Append(h, v)
			case 2:
				k := key(b1)
				m.remove(keyModel(k))
				a = a.Remove(h, k)
				h.DecRef(k)
			case 3:
				k := key(b1)
				got, ok := a.Get(k)
				if p := m.find(keyModel(k)); ok != (p >= 0) || ok && got.DebugString() != m.entries[p].val {
					t.Fatalf("%s: Get(%s) = %s, %v", what, k.DebugString(), got.DebugString(), ok)
				}
				h.DecRef(k)
			case 4:
				// Share the array, mutate one copy, and check the other did
				// not move; then keep one of the two.
				h.IncRef(ArrV(a))
				k, v := key(b1), val(b2)
				cm := m.clone()
				cm.set(keyModel(k), v.DebugString())
				b := a.Set(h, k, v)
				h.DecRef(k)
				if b == a {
					t.Fatalf("%s: a shared array was written in place", what)
				}
				m.compare(t, a, what+" (original)")
				cm.compare(t, b, what+" (copy)")
				if b2&1 != 0 {
					a, b, m = b, a, cm
				}
				h.DecRef(ArrV(b))
				checkParked(t, b)
			case 5:
				m.compare(t, a, what)
			case 6:
				// Grow past the index threshold in one step.
				for i := range int(b1 % 16) {
					k := h.NewStr(fmt.Sprint("g", int(b2)+i))
					m.set(keyModel(k), Int(int64(i)).DebugString())
					a = a.Set(h, k, Int(int64(i)))
					h.DecRef(k)
				}
			case 7:
				// Free the array and build the next one, which reuses a
				// parked box and its storage when one of its layout is there.
				h.DecRef(ArrV(a))
				checkParked(t, a)
				if h.LiveArrs != 0 || h.LiveStrs != 0 {
					t.Fatalf("%s: after the free, %d live arrays, %d live strings", what, h.LiveArrs, h.LiveStrs)
				}
				a, m = build(b1)
			}
			if a.Len() != len(m.entries) {
				t.Fatalf("%s: Len %d, model %d", what, a.Len(), len(m.entries))
			}
			checkLayout(t, a)
		}
		m.compare(t, a, "final")
		h.DecRef(ArrV(a))
		checkParked(t, a)
		if h.LiveStrs != 0 || h.LiveArrs != 0 || h.OverReleases != 0 {
			t.Fatalf("after the free: %d live strings, %d live arrays, %d over-releases", h.LiveStrs, h.LiveArrs, h.OverReleases)
		}
	})
}
