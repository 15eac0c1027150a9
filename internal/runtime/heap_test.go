package runtime

import (
	"strings"
	"testing"

	"repro/internal/shapes"
	"repro/internal/types"
)

// testClass builds a linked-looking class with the given property
// defaults, named p0, p1, ….
func testClass(tree *shapes.Tree, name string, init ...Value) *Class {
	c := &Class{Name: name, PropNames: map[string]int{}, PropInit: init, Methods: map[string]int{}}
	slots := make([]shapes.Slot, len(init))
	for i, v := range init {
		pname := "p" + string(rune('0'+i))
		c.PropNames[pname] = i
		slots[i] = shapes.Slot{Name: pname, Kind: v.Kind}
	}
	c.RootShape = tree.Root(slots)
	return c
}

func TestFreedStrHeaderIsReused(t *testing.T) {
	h := NewHeap()
	old := h.NewStr("old contents").AsStr()
	h.DecRef(StrV(old))
	if old.Data != "" || old.Refs() != 0 || h.LiveStrs != 0 {
		t.Fatalf("parked header still holds %q, refs %d, %d live strings", old.Data, old.Refs(), h.LiveStrs)
	}
	v := h.NewStr("new")
	if v.AsStr() != old {
		t.Fatal("the next NewStr did not reuse the freed header")
	}
	if s := v.AsStr(); s.Data != "new" || s.Refs() != 1 || s.Static() {
		t.Errorf("reused header: data %q, refs %d, static %v", s.Data, s.Refs(), s.Static())
	}
	if fresh := h.NewStr("other"); fresh.AsStr() == old {
		t.Error("one freed header handed out twice")
	}
	if h.OverReleases != 0 || h.LiveStrs != 2 {
		t.Errorf("%d over-releases, %d live strings", h.OverReleases, h.LiveStrs)
	}
}

func TestFreedObjectIsReusedAsItsClassDeclaresIt(t *testing.T) {
	tree := shapes.NewTree()
	arrayDefault := Value{Kind: types.KArr} // Env.NewInstance materializes a fresh array per instance
	cls := testClass(tree, "Rec", Int(7), arrayDefault)
	h := NewHeap()

	o := h.NewObject(cls)
	payload := h.NewStr("payload")
	o.SetPropSlot(h, 0, payload) // retypes slot 0
	if err := o.SetProp(h, "dyn", Int(1)); err != nil {
		t.Fatal(err)
	}
	o.Props[1] = ArrV(h.NewPackedOf([]Value{Int(1)}))
	if len(o.Props) != 3 || o.Shape == cls.RootShape {
		t.Fatalf("set-up: %d slots, root shape %v", len(o.Props), o.Shape == cls.RootShape)
	}
	h.DecRef(ObjV(o))
	if o.Class != nil || o.Shape != nil || payload.AsStr().Refs() != 0 || h.LiveObjs != 0 {
		t.Fatalf("parked object keeps class %v shape %v; payload refs %d; %d live",
			o.Class, o.Shape, payload.AsStr().Refs(), h.LiveObjs)
	}
	for i, p := range o.Props[:cap(o.Props)] {
		if p != (Value{}) {
			t.Errorf("parked object pins %s in slot %d", p.DebugString(), i)
		}
	}

	again := h.NewObject(cls)
	if again != o {
		t.Fatal("the next NewObject of the class did not reuse the freed box")
	}
	if again.Class != cls || again.Shape != cls.RootShape || again.Refs() != 1 || again.destructed {
		t.Errorf("reused object: class %v, root shape %v, refs %d, destructed %v",
			again.Class, again.Shape == cls.RootShape, again.Refs(), again.destructed)
	}
	if len(again.Props) != 2 || again.Props[0] != Int(7) || again.Props[1] != arrayDefault {
		t.Errorf("reused object's slots are not the declared defaults: %v", again.Props)
	}
	if h.OverReleases != 0 {
		t.Errorf("%d over-releases", h.OverReleases)
	}
}

func TestObjectListsAreByDeclaredSlotCount(t *testing.T) {
	tree := shapes.NewTree()
	a := testClass(tree, "A", Int(1))
	b := testClass(tree, "B", Null())
	c := testClass(tree, "C", Int(1), Int(2))
	h := NewHeap()

	o := h.NewObject(a)
	h.DecRef(ObjV(o))
	if h.NewObject(c) == o {
		t.Fatal("a one-slot box served a two-slot class")
	}
	ob := h.NewObject(b)
	if ob != o || ob.Class != b || ob.Props[0] != Null() {
		t.Errorf("a class of equal slot count did not reuse the box as its own: same %v, class %v", ob == o, ob.Class)
	}
}

// TestFreedArrayIsReusedWithItsStorage: an array's box is parked on its
// layout's list with its element storage, scrubbed, and the next array
// of that layout takes both: a reused packed box appends without
// regrowing, a reused mixed box needs no new entry slice.
func TestFreedArrayIsReusedWithItsStorage(t *testing.T) {
	h := NewHeap()
	list := h.NewPacked(0)
	for i := 0; i < 80; i++ {
		list = list.Append(h, h.NewStr("elem"))
	}
	storage := &list.elems[:1][0]
	h.DecRef(ArrV(list))
	checkParked(t, list)
	if h.LiveArrs != 0 || h.LiveStrs != 0 || len(h.freePacked) != 1 {
		t.Fatalf("after the free: %d live arrays, %d live strings, %d parked", h.LiveArrs, h.LiveStrs, len(h.freePacked))
	}

	again := h.NewPacked(0)
	if again != list || again.Refs() != 1 || again.Len() != 0 || !again.IsPacked() {
		t.Fatalf("the next packed array: same box %v, refs %d, len %d, packed %v",
			again == list, again.Refs(), again.Len(), again.IsPacked())
	}
	for i := 0; i < 80; i++ {
		again = again.Append(h, Int(int64(i)))
	}
	if again != list || &again.elems[0] != storage {
		t.Error("80 appends to a reused box regrew its storage")
	}
	if v, ok := again.GetIntKey(79); !ok || v.AsInt() != 79 {
		t.Errorf("[79] = %s, %v", v.DebugString(), ok)
	}
	if h.NewPacked(1) == list || h.NewMixed(0) == list {
		t.Error("a box in use was handed out again")
	}

	// A mixed box comes back as mixed only, with its entries, and with
	// nothing of its last life: count, next key and index.
	m := h.NewMixed(0)
	for i := 0; i < 20; i++ {
		m = m.Set(h, Int(int64(100+i)), h.NewStr("v"))
	}
	entries := &m.entries[:1][0]
	h.DecRef(ArrV(m))
	checkParked(t, m)
	if h.NewPacked(0) == m {
		t.Fatal("a mixed box served a packed array")
	}
	m2 := h.NewMixed(4)
	if m2 != m || &m2.entries[:1][0] != entries || m2.Len() != 0 || m2.index != nil {
		t.Fatalf("the next mixed array: same box %v, same entries %v, len %d, index %v",
			m2 == m, &m2.entries[:1][0] == entries, m2.Len(), m2.index != nil)
	}
	m2 = m2.Append(h, Int(1))
	if v, ok := m2.Get(Int(0)); !ok || v.AsInt() != 1 || m2.Len() != 1 {
		t.Errorf("the reused box's first append: [0] = %s, %v; len %d", v.DebugString(), ok, m2.Len())
	}
	if h.OverReleases != 0 {
		t.Errorf("%d over-releases", h.OverReleases)
	}
}

// TestReusedArrayGrowsOnlyToItsHint: a popped box keeps storage of at
// least the hint and is reallocated only when it is shorter.
func TestReusedArrayGrowsOnlyToItsHint(t *testing.T) {
	h := NewHeap()
	h.DecRef(ArrV(h.NewPacked(10)))
	small := h.NewPacked(4)
	if cap(small.elems) != 10 {
		t.Errorf("a 10-slot box reused for a hint of 4 has capacity %d, want 10", cap(small.elems))
	}
	h.DecRef(ArrV(small))
	if big := h.NewPacked(40); big != small || cap(big.elems) < 40 {
		t.Errorf("hint 40: same box %v, capacity %d", big == small, cap(big.elems))
	}
	h.DecRef(ArrV(h.NewMixed(3)))
	if m := h.NewMixed(9); cap(m.entries) < 9 {
		t.Errorf("mixed hint 9: capacity %d", cap(m.entries))
	}
}

// checkParked holds a freed array to the scrub rule: a dead count,
// nothing of its last life, and only zero values up to the capacity of
// its storage, so a parked box pins nothing for the host collector.
func checkParked(t *testing.T, a *Array) {
	t.Helper()
	if a.refs != deadRefs || a.live != 0 || a.nextIdx != 0 || a.index != nil || a.indexLen != 0 {
		t.Fatalf("freed array: refs %d, live %d, nextIdx %d, index %v (%d slots)",
			a.refs, a.live, a.nextIdx, a.index != nil, a.indexLen)
	}
	if len(a.elems) != 0 || len(a.entries) != 0 {
		t.Fatalf("freed array keeps %d elements, %d entries", len(a.elems), len(a.entries))
	}
	for i, v := range a.elems[:cap(a.elems)] {
		if v != (Value{}) {
			t.Fatalf("freed packed array pins %s in slot %d", v.DebugString(), i)
		}
	}
	for i, e := range a.entries[:cap(a.entries)] {
		if e != (arrayEntry{}) {
			t.Fatalf("freed mixed array pins %s => %s in entry %d", e.key.DebugString(), e.val.DebugString(), i)
		}
	}
}

// TestBoxFreedOnAnotherHeap: a value can cross heaps (each worker VM
// owns one); a box goes onto the list of the heap that frees it and
// onto no other.
func TestBoxFreedOnAnotherHeap(t *testing.T) {
	tree := shapes.NewTree()
	cls := testClass(tree, "A", Int(1))
	h1, h2 := NewHeap(), NewHeap()
	s, o := h1.NewStr("crossing").AsStr(), h1.NewObject(cls)
	h2.DecRef(StrV(s))
	h2.DecRef(ObjV(o))
	if h1.NewStr("x").AsStr() == s || h1.NewObject(cls) == o {
		t.Error("the allocating heap reused a box another heap parked")
	}
	if h2.NewStr("y").AsStr() != s || h2.NewObject(cls) != o {
		t.Error("the freeing heap did not reuse the boxes it parked")
	}
	if h2.NewStr("z").AsStr() == s || h2.NewObject(cls) == o {
		t.Error("a parked box was handed out twice")
	}
	if h1.OverReleases+h2.OverReleases != 0 {
		t.Errorf("over-releases: %d, %d", h1.OverReleases, h2.OverReleases)
	}
}

func TestParkedBytesBoundHoldsUnderBurst(t *testing.T) {
	tree := shapes.NewTree()
	small := testClass(tree, "Small", Int(1))
	wide := testClass(tree, "Wide", Int(1), Int(2), Int(3), Int(4), Int(5), Int(6), Int(7), Int(8))
	h := NewHeap()
	var burst []Value
	for i := 0; i < 2000; i++ {
		burst = append(burst, h.NewStr("s"), ObjV(h.NewObject(small)), ObjV(h.NewObject(wide)))
		if i%20 == 0 {
			big := h.NewPacked(1000)
			for k := 0; k < 1000; k++ {
				big.elems = append(big.elems, Int(int64(k)))
			}
			burst = append(burst, ArrV(big), ArrV(h.NewMixed(1000)), ArrV(h.NewPacked(3)), ArrV(h.NewMixed(3)))
		}
	}
	held := func() (bytes uintptr) {
		bytes = uintptr(len(h.freeStrs)) * strBytes
		for _, list := range h.freeObjs {
			for _, o := range list {
				bytes += o.parkedBytes()
			}
		}
		for _, list := range [][]*Array{h.freePacked, h.freeMixed} {
			for _, a := range list {
				bytes += a.parkedBytes()
			}
		}
		return bytes
	}
	for i, v := range burst {
		h.DecRef(v)
		if h.parked > maxParkedBytes {
			t.Fatalf("after %d frees the lists hold %d bytes, bound %d", i+1, h.parked, maxParkedBytes)
		}
	}
	if h.parked != held() || h.parked < maxParkedBytes/2 {
		t.Errorf("lists hold %d bytes, accounted %d, bound %d", held(), h.parked, maxParkedBytes)
	}
	if h.LiveStrs != 0 || h.LiveObjs != 0 || h.LiveArrs != 0 || h.Frees != uint64(len(burst)) {
		t.Errorf("after the burst: %d live strings, %d live objects, %d live arrays, %d frees of %d",
			h.LiveStrs, h.LiveObjs, h.LiveArrs, h.Frees, len(burst))
	}
	// Draining the lists returns every accounted byte.
	for i := 0; i < 2000; i++ {
		h.NewStr("s")
		h.NewObject(small)
		h.NewObject(wide)
		h.NewPacked(0)
		h.NewMixed(0)
	}
	if h.parked != 0 || held() != 0 {
		t.Errorf("drained lists still account %d bytes, hold %d", h.parked, held())
	}
}

func TestOverReleasesAreCountedNotActedOn(t *testing.T) {
	tree := shapes.NewTree()
	cls := testClass(tree, "A", Int(1))
	h := NewHeap()

	s := h.NewStr("s")
	h.DecRef(s)
	h.DecRef(s) // a DecRef too many: counted, and the box is parked once
	if h.OverReleases != 1 || len(h.freeStrs) != 1 || h.LiveStrs != 0 || h.Frees != 1 {
		t.Errorf("string: %d over-releases, %d parked, %d live, %d frees",
			h.OverReleases, len(h.freeStrs), h.LiveStrs, h.Frees)
	}
	h.IncRef(s) // a stale IncRef cannot revive a parked box; reuse notices
	if reused := h.NewStr("t"); reused.AsStr() != s.AsStr() || reused.AsStr().Refs() != 1 || h.OverReleases != 2 {
		t.Errorf("reuse after a stale IncRef: refs %d, %d over-releases", reused.AsStr().Refs(), h.OverReleases)
	}

	o := ObjV(h.NewObject(cls))
	h.DecRef(o)
	h.DecRef(o)
	arr := ArrV(h.NewPackedOf([]Value{Int(1)}))
	h.DecRef(arr)
	h.DecRef(arr)
	if h.OverReleases != 4 || h.LiveObjs != 0 || h.LiveArrs != 0 || len(h.freeObjs[1]) != 1 || len(h.freePacked) != 1 || h.Frees != 3 {
		t.Errorf("object and array: %d over-releases, %d live objects, %d live arrays, %d and %d parked, %d frees",
			h.OverReleases, h.LiveObjs, h.LiveArrs, len(h.freeObjs[1]), len(h.freePacked), h.Frees)
	}
	h.IncRef(arr) // a stale IncRef reaches the parked array; reuse notices
	if reused := h.NewPacked(0); reused != arr.AsArr() || reused.Refs() != 1 || reused.Len() != 0 || h.OverReleases != 5 {
		t.Errorf("reuse after a stale IncRef: same box %v, refs %d, len %d, %d over-releases",
			reused == arr.AsArr(), reused.Refs(), reused.Len(), h.OverReleases)
	}
}

// TestResurrectedObjectIsNeitherFreedNorParked: a destructor that
// stores $this leaves the object alive with the references it was
// given; it is destructed once and freed when those die.
func TestResurrectedObjectIsNeitherFreedNorParked(t *testing.T) {
	tree := shapes.NewTree()
	cls := testClass(tree, "Phoenix", Int(1))
	cls.HasDtor = true
	h := NewHeap()
	var kept Value
	h.OnDestruct = func(o *Object) {
		kept = ObjV(o)
		h.IncRef(kept)
	}
	o := h.NewObject(cls)
	h.DecRef(ObjV(o))
	if o.Refs() != 1 || o.Class != cls || len(o.Props) != 1 || h.LiveObjs != 1 || h.Frees != 0 || h.Destructs != 1 {
		t.Fatalf("escaped object: refs %d, class %v, %d slots; %d live, %d frees, %d destructs",
			o.Refs(), o.Class, len(o.Props), h.LiveObjs, h.Frees, h.Destructs)
	}
	if h.NewObject(cls) == o {
		t.Fatal("a live object was handed out again")
	}
	h.DecRef(kept)
	if h.Destructs != 1 || h.LiveObjs != 1 || o.Class != nil || h.OverReleases != 0 {
		t.Errorf("after the kept reference died: %d destructs, %d live, class %v, %d over-releases",
			h.Destructs, h.LiveObjs, o.Class, h.OverReleases)
	}
}

func TestWarmAllocationCounts(t *testing.T) {
	tree := shapes.NewTree()
	cls := testClass(tree, "A", Int(1), Null())
	h := NewHeap()
	a, b := h.NewStr("left-hand side, "), h.NewStr("right-hand side")
	n := Int(1234567)
	h.DecRef(Concat(h, []Value{a, b})) // warm the lists
	h.DecRef(ObjV(h.NewObject(cls)))

	if got := testing.AllocsPerRun(100, func() { h.DecRef(Concat(h, []Value{a, b})) }); got != 1 {
		t.Errorf("warm Concat of two strings: %v allocations, want 1 (the data)", got)
	}
	if got := testing.AllocsPerRun(100, func() { h.DecRef(Concat(h, []Value{a, n})) }); got != 1 {
		t.Errorf("warm Concat of a string and an int: %v allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { h.DecRef(ObjV(h.NewObject(cls))) }); got != 0 {
		t.Errorf("warm new/free cycle: %v allocations, want 0", got)
	}
	h.DecRef(mixedLiteral(h, 7))
	if got := testing.AllocsPerRun(100, func() { h.DecRef(mixedLiteral(h, 7)) }); got != 0 {
		t.Errorf("a 4-key literal built and freed: %v allocations, want 0", got)
	}
	h.DecRef(appendedList(h, 80))
	if got := testing.AllocsPerRun(100, func() { h.DecRef(appendedList(h, 80)) }); got != 0 {
		t.Errorf("an 80-element list appended and freed: %v allocations, want 0", got)
	}
}

// appendedList builds what `$a = []; for (…) { $a[] = $i; }` does: an
// empty packed literal, then n appends.
func appendedList(h *Heap, n int) Value {
	a := h.NewPacked(0)
	for i := 0; i < n; i++ {
		a = a.Append(h, Int(int64(i)))
	}
	return ArrV(a)
}

// literalKeys are the string keys of mixedLiteral, static as a unit's
// literals are.
var literalKeys = [...]Value{StrV(InternStr("id")), StrV(InternStr("name")), StrV(InternStr("score")), StrV(InternStr("tags"))}

// mixedLiteral builds what the bytecode for
// ["id" => $i, "name" => "n", "score" => $i, "tags" => $i] does: NewArray
// with its capacity hint, then one AddElemC per entry.
func mixedLiteral(h *Heap, i int64) Value {
	arr := ArrV(h.NewMixed(len(literalKeys)))
	for k, key := range literalKeys {
		val := Int(i)
		if k == 1 {
			val = StrV(InternStr("n"))
		}
		arr, _ = AddElem(h, arr, key, val)
	}
	return arr
}

// BenchmarkGuestAlloc is the allocation cost of what the site creates
// most: a concatenation's result, a string built by forty appends
// (profile_render's page), an object, a 4-key mixed literal and an
// 80-element list built by appends, each freed before the next is made.
func BenchmarkGuestAlloc(b *testing.B) {
	tree := shapes.NewTree()
	cls := testClass(tree, "A", Int(1), Null(), Null())
	h := NewHeap()
	left, right := h.NewStr("left-hand side, "), h.NewStr("right-hand side")
	b.Run("concat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.DecRef(Concat(h, []Value{left, Int(int64(i))}))
			h.DecRef(Concat(h, []Value{left, right}))
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		card := []Value{h.NewStr(strings.Repeat("c", 100))}
		for i := 0; i < b.N; i++ {
			page := StrV(InternStr(""))
			for k := 0; k < 40; k++ {
				ConcatAppend(h, &page, card)
			}
			h.DecRef(page)
		}
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.DecRef(ObjV(h.NewObject(cls)))
		}
	})
	b.Run("mixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.DecRef(mixedLiteral(h, int64(i)))
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.DecRef(appendedList(h, 80))
		}
	})
}
