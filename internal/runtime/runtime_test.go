package runtime_test

import (
	"strings"
	"testing"
	"testing/quick"

	rt "repro/internal/runtime"
	"repro/internal/shapes"
	"repro/internal/types"
)

func TestRefcountBasics(t *testing.T) {
	h := rt.NewHeap()
	v := h.NewStr("hello")
	if v.AsStr().Refs() != 1 {
		t.Fatalf("fresh string refs = %d", v.AsStr().Refs())
	}
	h.IncRef(v)
	if v.AsStr().Refs() != 2 {
		t.Fatalf("after incref refs = %d", v.AsStr().Refs())
	}
	h.DecRef(v)
	h.DecRef(v)
	if v.AsStr().Refs() != 0 {
		t.Fatalf("after release refs = %d", v.AsStr().Refs())
	}
	if h.Frees != 1 {
		t.Fatalf("frees = %d", h.Frees)
	}
}

func TestStaticStringsSkipRefcounting(t *testing.T) {
	h := rt.NewHeap()
	v := rt.StrV(rt.InternStr("static"))
	before := h.IncRefs
	h.IncRef(v)
	h.DecRef(v)
	if h.IncRefs != before {
		t.Error("static strings must not be refcounted")
	}
}

func TestCopyOnWrite(t *testing.T) {
	h := rt.NewHeap()
	a := h.NewPackedOf([]rt.Value{rt.Int(1), rt.Int(2)})
	av := rt.ArrV(a)
	h.IncRef(av) // second reference (simulating $b = $a)
	b := a.Set(h, rt.Int(0), rt.Int(99))
	if b == a {
		t.Fatal("mutation of shared array did not copy")
	}
	if h.CowCopies != 1 {
		t.Fatalf("CowCopies = %d", h.CowCopies)
	}
	orig, _ := a.GetIntKey(0)
	mod, _ := b.GetIntKey(0)
	if orig.AsInt() != 1 || mod.AsInt() != 99 {
		t.Fatalf("COW values wrong: %d / %d", orig.AsInt(), mod.AsInt())
	}
	// Unshared mutation must NOT copy.
	before := h.CowCopies
	c := b.Set(h, rt.Int(1), rt.Int(5))
	if c != b || h.CowCopies != before {
		t.Error("unshared array copied needlessly")
	}
}

func TestPackedEscalatesToMixed(t *testing.T) {
	h := rt.NewHeap()
	a := h.NewPackedOf([]rt.Value{rt.Int(1)})
	if !a.IsPacked() {
		t.Fatal("fresh packed array is not packed")
	}
	a = a.Set(h, h.NewStr("k"), rt.Int(2))
	if a.IsPacked() {
		t.Fatal("string key should escalate to mixed")
	}
	v, ok := a.Get(h.NewStr("k"))
	if !ok || v.AsInt() != 2 {
		t.Fatal("escalated array lost the element")
	}
	v, ok = a.GetIntKey(0)
	if !ok || v.AsInt() != 1 {
		t.Fatal("escalated array lost the packed element")
	}
}

func TestArrayAppendKeepsPacked(t *testing.T) {
	h := rt.NewHeap()
	a := h.NewPacked(0)
	for i := 0; i < 10; i++ {
		a = a.Append(h, rt.Int(int64(i)))
	}
	if !a.IsPacked() || a.Len() != 10 {
		t.Fatalf("append broke packed layout: packed=%v len=%d", a.IsPacked(), a.Len())
	}
}

func TestMixedInsertionOrder(t *testing.T) {
	h := rt.NewHeap()
	a := h.NewMixed(0)
	keys := []string{"z", "a", "m"}
	for i, k := range keys {
		a = a.Set(h, h.NewStr(k), rt.Int(int64(i)))
	}
	var got []string
	a.Each(func(k, _ rt.Value) bool { got = append(got, k.ToString()); return true })
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("iteration order %v != insertion order %v", got, keys)
		}
	}
}

func TestArrayRemoveAndTombstones(t *testing.T) {
	h := rt.NewHeap()
	a := h.NewMixed(0)
	a = a.Set(h, h.NewStr("a"), rt.Int(1))
	a = a.Set(h, h.NewStr("b"), rt.Int(2))
	a = a.Remove(h, h.NewStr("a"))
	if a.Len() != 1 {
		t.Fatalf("len after remove = %d", a.Len())
	}
	if _, ok := a.Get(h.NewStr("a")); ok {
		t.Fatal("removed key still present")
	}
	var seen int
	a.Each(func(_, _ rt.Value) bool { seen++; return true })
	if seen != 1 {
		t.Fatalf("iteration visited %d entries", seen)
	}
}

func TestPHPSemanticsOps(t *testing.T) {
	h := rt.NewHeap()
	// Int+Int stays int; Int+Dbl promotes.
	v, err := rt.Add(h, rt.Int(2), rt.Int(3))
	if err != nil || v.Kind != types.KInt || v.AsInt() != 5 {
		t.Errorf("2+3 = %v (%v)", v.DebugString(), err)
	}
	v, _ = rt.Add(h, rt.Int(2), rt.Dbl(0.5))
	if v.Kind != types.KDbl || v.AsDbl() != 2.5 {
		t.Errorf("2+0.5 = %v", v.DebugString())
	}
	// Int/Int exact stays int; inexact goes double.
	v, _ = rt.Div(rt.Int(6), rt.Int(3))
	if v.Kind != types.KInt || v.AsInt() != 2 {
		t.Errorf("6/3 = %v", v.DebugString())
	}
	v, _ = rt.Div(rt.Int(7), rt.Int(2))
	if v.Kind != types.KDbl || v.AsDbl() != 3.5 {
		t.Errorf("7/2 = %v", v.DebugString())
	}
	if _, err := rt.Div(rt.Int(1), rt.Int(0)); err == nil {
		t.Error("1/0 should error")
	}
	// Loose vs strict equality.
	if !rt.LooseEq(rt.Int(1), rt.Dbl(1)) {
		t.Error("1 == 1.0 should be loosely true")
	}
	if rt.StrictEq(rt.Int(1), rt.Dbl(1)) {
		t.Error("1 === 1.0 should be strictly false")
	}
}

func TestTruthiness(t *testing.T) {
	h := rt.NewHeap()
	cases := []struct {
		v    rt.Value
		want bool
	}{
		{rt.Int(0), false}, {rt.Int(1), true},
		{h.NewStr(""), false}, {h.NewStr("0"), false}, {h.NewStr("x"), true},
		{rt.Null(), false}, {rt.Bool(true), true},
		{rt.ArrV(h.NewPacked(0)), false},
		{rt.ArrV(h.NewPackedOf([]rt.Value{rt.Int(0)})), true},
	}
	for _, c := range cases {
		if c.v.Bool() != c.want {
			t.Errorf("truthiness of %s = %v, want %v", c.v.DebugString(), c.v.Bool(), c.want)
		}
	}
}

// Property: for any sequence of Set operations on an unshared array,
// Get returns the last value written per key and Len matches the
// distinct-key count.
func TestArraySetGetProperty(t *testing.T) {
	f := func(keys []uint8, vals []int64) bool {
		h := rt.NewHeap()
		a := h.NewMixed(0)
		model := map[int64]int64{}
		for i, k := range keys {
			if i >= len(vals) {
				break
			}
			kk := int64(k % 16)
			a = a.Set(h, rt.Int(kk), rt.Int(vals[i]))
			model[kk] = vals[i]
		}
		if a.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := a.Get(rt.Int(k))
			if !ok || got.AsInt() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: COW preserves the original array exactly.
func TestCOWPreservesOriginalProperty(t *testing.T) {
	f := func(vals []int64, idx uint8, nv int64) bool {
		if len(vals) == 0 {
			return true
		}
		h := rt.NewHeap()
		elems := make([]rt.Value, len(vals))
		for i, v := range vals {
			elems[i] = rt.Int(v)
		}
		a := h.NewPackedOf(elems)
		av := rt.ArrV(a)
		h.IncRef(av)
		i := int64(idx) % int64(len(vals))
		b := a.Set(h, rt.Int(i), rt.Int(nv))
		// Original unchanged at every index.
		for j, v := range vals {
			got, _ := a.GetIntKey(int64(j))
			if got.AsInt() != v {
				return false
			}
		}
		got, _ := b.GetIntKey(i)
		return got.AsInt() == nv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestObjectProps(t *testing.T) {
	h := rt.NewHeap()
	cls := &rt.Class{
		Name:      "P",
		PropNames: map[string]int{"x": 0, "y": 1},
		PropInit:  []rt.Value{rt.Int(0), rt.Int(0)},
		Methods:   map[string]int{},
	}
	o := h.NewObject(cls)
	if err := o.SetProp(h, "x", rt.Int(42)); err != nil {
		t.Fatal(err)
	}
	v, ok := o.GetProp("x")
	if !ok || v.AsInt() != 42 {
		t.Fatalf("prop x = %v", v.DebugString())
	}
	if err := o.SetProp(h, "nope", rt.Int(1)); err == nil {
		t.Error("unknown property write should error")
	}
}

func TestBuiltinTable(t *testing.T) {
	b, ok := rt.LookupBuiltin("count")
	if !ok {
		t.Fatal("count missing")
	}
	ctx := &rt.BuiltinCtx{Heap: rt.NewHeap()}
	arr := rt.ArrV(ctx.Heap.NewPackedOf([]rt.Value{rt.Int(1), rt.Int(2)}))
	v, err := b.Fn(ctx, []rt.Value{arr})
	if err != nil || v.AsInt() != 2 {
		t.Fatalf("count = %v (%v)", v.DebugString(), err)
	}
	if len(rt.BuiltinNames()) < 20 {
		t.Errorf("builtin table suspiciously small: %d", len(rt.BuiltinNames()))
	}
}

// TestLookupFoldIsToLower: the stack-buffer fold finds exactly what
// indexing by strings.ToLower finds, on both sides of its 64-byte
// buffer and for names it leaves to ToLower.
func TestLookupFoldIsToLower(t *testing.T) {
	long := strings.Repeat("x", 64)
	m := map[string]int{"rendercard": 1, long: 2, long + "y": 3, "été": 4, "": 5}
	for _, name := range []string{"renderCard", "RENDERCARD", "render_card", long, strings.ToUpper(long),
		long + "Y", long + "z", "ÉTÉ", "Été", "", "renderCard\xff"} {
		want, wantOK := m[strings.ToLower(name)]
		if got, ok := rt.LookupFold(m, name); got != want || ok != wantOK {
			t.Errorf("LookupFold(%q) = %d, %v; ToLower finds %d, %v", name, got, ok, want, wantOK)
		}
	}
}

func TestPropNamedRefcounts(t *testing.T) {
	h := rt.NewHeap()
	tree := shapes.NewTree()
	cls := &rt.Class{
		Name:      "Box",
		PropNames: map[string]int{"v": 0},
		PropInit:  []rt.Value{rt.Null()},
		Methods:   map[string]int{},
		RootShape: tree.Root([]shapes.Slot{{Name: "v", Kind: types.KNull}}),
	}
	o := h.NewObject(cls)

	s := h.NewStr("payload")
	if s.AsStr().Refs() != 1 {
		t.Fatalf("fresh string refs = %d", s.AsStr().Refs())
	}
	// SetPropNamed consumes the caller's reference: the slot now holds
	// the only one.
	if err := rt.SetPropNamed(h, rt.ObjV(o), "v", s); err != nil {
		t.Fatal(err)
	}
	if s.AsStr().Refs() != 1 {
		t.Fatalf("after store refs = %d, want 1 (slot-owned)", s.AsStr().Refs())
	}
	// GetPropNamed returns an owned reference.
	got, _ := rt.GetPropNamed(h, rt.ObjV(o), "v")
	if got.AsStr() != s.AsStr() || s.AsStr().Refs() != 2 {
		t.Fatalf("after read refs = %d, want 2", s.AsStr().Refs())
	}
	h.DecRef(got)
	// Overwriting releases the old value.
	if err := rt.SetPropNamed(h, rt.ObjV(o), "v", rt.Int(3)); err != nil {
		t.Fatal(err)
	}
	if s.AsStr().Refs() != 0 {
		t.Fatalf("overwritten value refs = %d, want 0", s.AsStr().Refs())
	}
	// A missing property reads as null, not an error.
	if v, _ := rt.GetPropNamed(h, rt.ObjV(o), "absent"); v.Kind != types.KNull {
		t.Fatalf("missing prop read %v, want null", v.DebugString())
	}
}

func TestPropNamedDynamicTransitions(t *testing.T) {
	h := rt.NewHeap()
	tree := shapes.NewTree()
	cls := &rt.Class{
		Name:      "Bag",
		PropNames: map[string]int{"id": 0},
		PropInit:  []rt.Value{rt.Int(0)},
		Methods:   map[string]int{},
		RootShape: tree.Root([]shapes.Slot{{Name: "id", Kind: types.KInt}}),
	}
	a, b := h.NewObject(cls), h.NewObject(cls)
	if a.ShapeID() != b.ShapeID() || a.ShapeID() == 0 {
		t.Fatalf("fresh instances should share the root shape")
	}
	root := a.ShapeID()

	// Writing an undeclared property transitions the shape and makes
	// the value readable by name.
	if err := rt.SetPropNamed(h, rt.ObjV(a), "count", rt.Int(7)); err != nil {
		t.Fatal(err)
	}
	if a.ShapeID() == root {
		t.Fatal("dynamic append did not transition the shape")
	}
	if v, _ := rt.GetPropNamed(h, rt.ObjV(a), "count"); v.Kind != types.KInt || v.AsInt() != 7 {
		t.Fatalf("dynamic prop read %v", v.DebugString())
	}
	// The sibling object is untouched.
	if b.ShapeID() != root {
		t.Fatal("transition leaked to another instance")
	}
	// The same write sequence on b converges on a's shape (interning).
	if err := rt.SetPropNamed(h, rt.ObjV(b), "count", rt.Int(1)); err != nil {
		t.Fatal(err)
	}
	if b.ShapeID() != a.ShapeID() {
		t.Fatalf("identical write sequences diverged: %d vs %d", b.ShapeID(), a.ShapeID())
	}
	// Retyping a slot (int -> string) transitions again; retyping back
	// returns to the interned original.
	withCount := a.ShapeID()
	if err := rt.SetPropNamed(h, rt.ObjV(a), "count", h.NewStr("many")); err != nil {
		t.Fatal(err)
	}
	if a.ShapeID() == withCount {
		t.Fatal("retype did not transition the shape")
	}
	if err := rt.SetPropNamed(h, rt.ObjV(a), "count", rt.Int(2)); err != nil {
		t.Fatal(err)
	}
	if a.ShapeID() != withCount {
		t.Fatal("retype round-trip did not return to the interned shape")
	}
	// A shapeless object (no linked root) keeps the historical
	// undefined-property error.
	bare := h.NewObject(&rt.Class{Name: "Bare", PropNames: map[string]int{}, Methods: map[string]int{}})
	if err := rt.SetPropNamed(h, rt.ObjV(bare), "count", rt.Int(1)); err == nil {
		t.Fatal("shapeless dynamic write should error")
	}
}
