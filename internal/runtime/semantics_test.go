package runtime_test

import (
	"testing"

	rt "repro/internal/runtime"
	"repro/internal/shapes"
	"repro/internal/types"
)

// Both tiers call the operations below, so a bug in one of them no
// longer shows up as a tier difference: each is pinned against PHP's
// answer over every operand kind, together with the ownership
// convention (borrowed operands keep their count, a consumed value is
// released on the failure path too) and copy-on-write.

// operand is one value of each kind, freshly built per test so
// refcounts start at 1.
type operand struct {
	name string
	v    rt.Value
}

func boxClass() *rt.Class {
	tree := shapes.NewTree()
	return &rt.Class{
		Name:      "Box",
		PropNames: map[string]int{"p": 0},
		PropInit:  []rt.Value{rt.Int(1)},
		Methods:   map[string]int{},
		RootShape: tree.Root([]shapes.Slot{{Name: "p", Kind: types.KInt}}),
	}
}

func everyKind(h *rt.Heap) []operand {
	return []operand{
		{"Uninit", rt.Uninit()},
		{"Null", rt.Null()},
		{"Bool", rt.Bool(true)},
		{"Int", rt.Int(5)},
		{"Dbl", rt.Dbl(2.5)},
		{"Str", h.NewStr("7")},
		{"Arr", rt.ArrV(h.NewPackedOf([]rt.Value{rt.Int(10), rt.Int(20)}))},
		{"Obj", rt.ObjV(h.NewObject(boxClass()))},
	}
}

// refs reads a counted value's reference count (-1 for uncounted).
func refs(v rt.Value) int32 {
	switch v.Kind {
	case types.KStr:
		return v.AsStr().Refs()
	case types.KArr:
		return v.AsArr().Refs()
	case types.KObj:
		return v.AsObj().Refs()
	}
	return -1
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestNegEveryKind(t *testing.T) {
	h := rt.NewHeap()
	want := map[string]string{
		"Uninit": "Int:0", "Null": "Int:0", "Bool": "Int:-1", "Int": "Int:-5",
		"Dbl": "Dbl:-2.5", "Str": "Int:-7", "Arr": "Int:0", "Obj": "Int:0",
	}
	for _, op := range everyKind(h) {
		before := refs(op.v)
		r := rt.Neg(op.v)
		if got := r.Type().String() + ":" + r.ToString(); got != want[op.name] {
			t.Errorf("-%s = %s, want %s", op.name, got, want[op.name])
		}
		if refs(op.v) != before {
			t.Errorf("Neg changed the refcount of its %s operand", op.name)
		}
	}
}

func TestCompareByCondition(t *testing.T) {
	type row struct {
		a, b rt.Value
		// lt le gt ge eq ne
		want [6]bool
	}
	h := rt.NewHeap()
	s := func(x string) rt.Value { return h.NewStr(x) }
	rows := []row{
		{rt.Int(1), rt.Int(2), [6]bool{true, true, false, false, false, true}},
		{rt.Int(2), rt.Int(2), [6]bool{false, true, false, true, true, false}},
		{rt.Dbl(2.5), rt.Int(2), [6]bool{false, false, true, true, false, true}},
		{s("a"), s("b"), [6]bool{true, true, false, false, false, true}},
		{s("10"), s("9"), [6]bool{true, true, false, false, false, true}}, // strings compare as strings
		{s("5"), rt.Int(5), [6]bool{false, true, false, true, true, false}},
		// A bool operand compares by truthiness: true == 5, not true < 5.
		{rt.Bool(true), rt.Int(5), [6]bool{false, true, false, true, true, false}},
		{rt.Bool(false), rt.Int(5), [6]bool{true, true, false, false, false, true}},
		{rt.Null(), rt.Uninit(), [6]bool{false, true, false, true, true, false}},
		{rt.Null(), rt.Int(0), [6]bool{false, true, false, true, true, false}},
	}
	conds := []rt.Cond{rt.CondLT, rt.CondLE, rt.CondGT, rt.CondGE, rt.CondEQ, rt.CondNE}
	for _, r := range rows {
		for i, c := range conds {
			if got := rt.Compare(c, r.a, r.b); got != r.want[i] {
				t.Errorf("Compare(%d, %s, %s) = %v, want %v",
					c, r.a.DebugString(), r.b.DebugString(), got, r.want[i])
			}
		}
	}
	// Equality on arrays and objects is LooseEq, not an ordering.
	o := rt.ObjV(h.NewObject(boxClass()))
	if !rt.Compare(rt.CondEQ, o, o) || rt.Compare(rt.CondEQ, o, rt.ObjV(h.NewObject(boxClass()))) {
		t.Error("object equality must be identity")
	}
	a1 := rt.ArrV(h.NewPackedOf([]rt.Value{rt.Int(1)}))
	a2 := rt.ArrV(h.NewPackedOf([]rt.Value{rt.Int(1)}))
	if !rt.Compare(rt.CondEQ, a1, a2) || rt.Compare(rt.CondNE, a1, a2) {
		t.Error("equal arrays must compare ==")
	}
}

func TestToStrEveryKind(t *testing.T) {
	h := rt.NewHeap()
	want := map[string]string{
		"Uninit": "", "Null": "", "Bool": "1", "Int": "5", "Dbl": "2.5",
		"Str": "7", "Arr": "Array", "Obj": "Object(Box)",
	}
	for _, op := range everyKind(h) {
		before := refs(op.v)
		r := rt.ToStr(h, op.v)
		if r.Kind != types.KStr || r.AsStr().Data != want[op.name] {
			t.Errorf("(string)%s = %s, want %q", op.name, r.DebugString(), want[op.name])
		}
		if op.name == "Str" {
			// The same string, one more reference: the result is owned.
			if r.AsStr() != op.v.AsStr() || refs(op.v) != before+1 {
				t.Errorf("ToStr(Str): refs %d -> %d, want +1 on the same string", before, refs(op.v))
			}
			continue
		}
		if refs(op.v) != before {
			t.Errorf("ToStr changed the refcount of its %s operand", op.name)
		}
		if r.AsStr().Refs() != 1 {
			t.Errorf("ToStr(%s) result refs = %d, want a fresh string", op.name, r.AsStr().Refs())
		}
	}
	// A static string stays uncounted.
	st := rt.StrV(rt.InternStr("lit"))
	if r := rt.ToStr(h, st); r.AsStr() != st.AsStr() || !r.AsStr().Static() {
		t.Error("ToStr of a static string must return it unchanged")
	}
}

func TestIncDecEveryKind(t *testing.T) {
	h := rt.NewHeap()
	type res struct{ pre, post, slot string }
	show := func(v rt.Value) string { return v.Type().String() + ":" + v.ToString() }
	// inc: [++$x value, $x++ value, slot afterwards]; same for dec.
	wantInc := map[string]res{
		"Uninit": {"Int:1", "Null:", "Int:1"}, "Null": {"Int:1", "Null:", "Int:1"},
		"Int": {"Int:6", "Int:5", "Int:6"}, "Dbl": {"Dbl:3.5", "Dbl:2.5", "Dbl:3.5"},
	}
	wantDec := map[string]res{
		"Uninit": {"Null:", "Null:", "Null:"}, "Null": {"Null:", "Null:", "Null:"},
		"Int": {"Int:4", "Int:5", "Int:4"}, "Dbl": {"Dbl:1.5", "Dbl:2.5", "Dbl:1.5"},
	}
	for _, op := range everyKind(h) {
		for _, inc := range []bool{true, false} {
			want, ok := wantInc[op.name]
			if !inc {
				want = wantDec[op.name]
			}
			pre, post := op.v, op.v
			gotPre, errPre := rt.IncDec(&pre, inc, false)
			gotPost, errPost := rt.IncDec(&post, inc, true)
			if !ok {
				msg := "cannot increment/decrement " + op.v.Type().String()
				if errText(errPre) != msg || errText(errPost) != msg {
					t.Errorf("IncDec(%s): errors %q / %q, want %q", op.name, errText(errPre), errText(errPost), msg)
				}
				if !rt.StrictEq(pre, op.v) {
					t.Errorf("failed IncDec(%s) changed the slot", op.name)
				}
				continue
			}
			if errPre != nil || errPost != nil {
				t.Fatalf("IncDec(%s): %v / %v", op.name, errPre, errPost)
			}
			got := res{show(gotPre), show(gotPost), show(pre)}
			if got != want || show(post) != want.slot {
				t.Errorf("IncDec(%s, inc=%v) = %+v (post slot %s), want %+v", op.name, inc, got, show(post), want)
			}
		}
	}
}

func TestElemGetEveryKind(t *testing.T) {
	h := rt.NewHeap()
	key := h.NewStr("k")
	for _, op := range everyKind(h) {
		before, kbefore := refs(op.v), refs(key)
		got, err := rt.ElemGet(h, op.v, rt.Int(1), "")
		_, errL := rt.ElemGet(h, op.v, key, "a")
		if op.name == "Arr" {
			if err != nil || errL != nil || got.Kind != types.KInt || got.AsInt() != 20 {
				t.Errorf("ElemGet(Arr, 1) = %s, %v", got.DebugString(), err)
			}
		} else if errText(err) != "cannot index non-array" ||
			errText(errL) != "cannot index non-array local $a" {
			t.Errorf("ElemGet(%s): %q / %q", op.name, errText(err), errText(errL))
		}
		if refs(op.v) != before || refs(key) != kbefore {
			t.Errorf("ElemGet(%s) changed a borrowed operand's refcount", op.name)
		}
	}
	// A missing element reads as null; a counted element comes back owned.
	inner := h.NewStr("payload")
	arr := rt.ArrV(h.NewPackedOf([]rt.Value{inner}))
	if v, err := rt.ElemGet(h, arr, rt.Int(9), ""); err != nil || v.Kind != types.KNull {
		t.Errorf("missing element read %s, %v; want null", v.DebugString(), err)
	}
	if v, _ := rt.ElemGet(h, arr, rt.Int(0), ""); v.AsStr() != inner.AsStr() || refs(inner) != 2 {
		t.Errorf("element read must return an owned reference: refs = %d", refs(inner))
	}
}

func TestElemStoresEveryKind(t *testing.T) {
	type store struct {
		name string
		do   func(h *rt.Heap, slot *rt.Value, key, val rt.Value) error
		msg  string
	}
	stores := []store{
		{"ElemSet", func(h *rt.Heap, s *rt.Value, k, v rt.Value) error { return rt.ElemSet(h, s, k, v) },
			"cannot write index of non-array"},
		{"ElemAppend", func(h *rt.Heap, s *rt.Value, k, v rt.Value) error { return rt.ElemAppend(h, s, v) },
			"cannot append to non-array"},
	}
	for _, st := range stores {
		h := rt.NewHeap()
		for _, op := range everyKind(h) {
			slot := op.v
			before := refs(op.v)
			key, val := h.NewStr("k"), h.NewStr("stored")
			err := st.do(h, &slot, key, val)
			// The caller's key is borrowed: it keeps its reference, and an
			// entry stored under it holds one more until the entry dies.
			wantKey := int32(1)
			if st.name == "ElemSet" && err == nil {
				wantKey = 2
			}
			if refs(key) != wantKey {
				t.Errorf("%s(%s): key refs = %d, want %d", st.name, op.name, refs(key), wantKey)
			}
			switch op.name {
			case "Uninit", "Null": // auto-vivification
				if err != nil || slot.Kind != types.KArr || slot.AsArr().Len() != 1 {
					t.Errorf("%s(%s) did not auto-vivify: %s, %v", st.name, op.name, slot.DebugString(), err)
				}
				wantPacked := st.name == "ElemAppend"
				if slot.Kind == types.KArr && slot.AsArr().IsPacked() != wantPacked {
					t.Errorf("%s(%s) vivified packed=%v", st.name, op.name, !wantPacked)
				}
				if refs(val) != 1 {
					t.Errorf("%s(%s): stored value refs = %d, want 1 (array-owned)", st.name, op.name, refs(val))
				}
				h.DecRef(slot)
				if refs(key) != 1 || refs(val) != 0 {
					t.Errorf("%s(%s): freeing the array left key refs = %d, value refs = %d", st.name, op.name, refs(key), refs(val))
				}
			case "Arr":
				if err != nil || slot.AsArr() != op.v.AsArr() || slot.AsArr().Len() != 3 || h.CowCopies != 0 {
					t.Errorf("%s on an unshared array must mutate in place: %v cow=%d", st.name, err, h.CowCopies)
				}
				if st.name == "ElemSet" {
					rt.ElemUnset(h, &slot, key)
					if refs(key) != 1 || refs(val) != 0 {
						t.Errorf("ElemSet then unset: key refs = %d, value refs = %d", refs(key), refs(val))
					}
				}
			default:
				if errText(err) != st.msg {
					t.Errorf("%s(%s): %q, want %q", st.name, op.name, errText(err), st.msg)
				}
				if refs(val) != 0 {
					t.Errorf("%s(%s) failed but left the value at refs = %d: a stored value is consumed", st.name, op.name, refs(val))
				}
				if refs(op.v) != before || !rt.StrictEq(slot, op.v) {
					t.Errorf("failed %s(%s) touched the slot", st.name, op.name)
				}
			}
		}
		// A shared array is copied exactly once, the other holder keeps
		// the original.
		orig := h.NewPackedOf([]rt.Value{rt.Int(1)})
		slot := rt.ArrV(orig)
		h.IncRef(slot) // $b = $a
		if err := st.do(h, &slot, rt.Int(1), rt.Int(2)); err != nil {
			t.Fatal(err)
		}
		if h.CowCopies != 1 || slot.AsArr() == orig || orig.Len() != 1 || orig.Refs() != 1 || slot.AsArr().Len() != 2 {
			t.Errorf("%s on a shared array: cow=%d origLen=%d origRefs=%d", st.name, h.CowCopies, orig.Len(), orig.Refs())
		}
	}
}

func TestElemUnsetAndExists(t *testing.T) {
	h := rt.NewHeap()
	for _, op := range everyKind(h) {
		slot := op.v
		before := refs(op.v)
		exists := rt.ElemExists(slot, rt.Int(1))
		rt.ElemUnset(h, &slot, rt.Int(1))
		if op.name == "Arr" {
			if !exists || slot.AsArr().Len() != 1 || rt.ElemExists(slot, rt.Int(1)) {
				t.Errorf("unset on an array: exists=%v len=%d", exists, slot.AsArr().Len())
			}
			continue
		}
		if exists || !rt.StrictEq(slot, op.v) || refs(op.v) != before {
			t.Errorf("ElemExists/ElemUnset on %s must be false / a no-op", op.name)
		}
	}
	// Unsetting through a shared array copies; the element's reference
	// in the original survives.
	el := h.NewStr("e")
	orig := h.NewPackedOf([]rt.Value{el})
	slot := rt.ArrV(orig)
	h.IncRef(slot)
	cow := h.CowCopies
	rt.ElemUnset(h, &slot, rt.Int(0))
	if h.CowCopies != cow+1 || orig.Len() != 1 || slot.AsArr().Len() != 0 || refs(el) != 1 {
		t.Errorf("unset on shared array: cow+%d origLen=%d elRefs=%d", h.CowCopies-cow, orig.Len(), refs(el))
	}
}

func TestAddElemConsumesArrayAndValue(t *testing.T) {
	h := rt.NewHeap()
	for _, op := range everyKind(h) {
		for _, withKey := range []bool{true, false} {
			arr, key, val := op.v, h.NewStr("k"), h.NewStr("v")
			h.IncRef(arr) // keep op.v alive for the next round
			before := refs(arr)
			var got rt.Value
			var err error
			name, msg := "AddNewElem", "AddNewElemC on non-array"
			if withKey {
				name, msg = "AddElem", "AddElemC on non-array"
				got, err = rt.AddElem(h, arr, key, val)
			} else {
				got, err = rt.AddNewElem(h, arr, val)
			}
			// Borrowed, plus the new entry's own reference while it lives.
			wantKey := int32(1)
			if withKey && err == nil {
				wantKey = 2
			}
			if refs(key) != wantKey {
				t.Errorf("%s(%s): key refs = %d, want %d", name, op.name, refs(key), wantKey)
			}
			if op.name == "Arr" {
				// Shared (the IncRef above), so the literal builder copies;
				// the array reference moved into the result.
				if err != nil || got.Kind != types.KArr || got.AsArr().Len() != 3 || refs(val) != 1 {
					t.Errorf("%s(Arr) = %s, %v", name, got.DebugString(), err)
				}
				if refs(arr) != before-1 {
					t.Errorf("%s(Arr): source refs %d -> %d, want the reference moved", name, before, refs(arr))
				}
				h.DecRef(got)
				if refs(key) != 1 || refs(val) != 0 {
					t.Errorf("%s(Arr): freeing the result left key refs = %d, value refs = %d", name, refs(key), refs(val))
				}
				continue
			}
			if errText(err) != msg {
				t.Errorf("%s(%s): %q, want %q", name, op.name, errText(err), msg)
			}
			if refs(val) != 0 {
				t.Errorf("%s(%s) failed but left the value at refs = %d", name, op.name, refs(val))
			}
			if before > 0 && refs(arr) != before-1 {
				t.Errorf("%s(%s) failed: base refs %d -> %d, want consumed", name, op.name, before, refs(arr))
			}
		}
	}
}

func TestPropNamedOnEveryKind(t *testing.T) {
	h := rt.NewHeap()
	for _, op := range everyKind(h) {
		before := refs(op.v)
		val := h.NewStr("stored")
		got, gerr := rt.GetPropNamed(h, op.v, "p")
		serr := rt.SetPropNamed(h, op.v, "q", val)
		if op.name == "Obj" {
			if gerr != nil || got.Kind != types.KInt || got.AsInt() != 1 {
				t.Errorf("GetPropNamed(Obj, p) = %s, %v", got.DebugString(), gerr)
			}
			if q, _ := rt.GetPropNamed(h, op.v, "q"); serr != nil || q.AsStr() != val.AsStr() || refs(val) != 2 {
				t.Errorf("SetPropNamed(Obj, q): %v, refs = %d (slot + read)", serr, refs(val))
			}
			if miss, err := rt.GetPropNamed(h, op.v, "absent"); err != nil || miss.Kind != types.KNull {
				t.Errorf("missing property read %s, %v; want null", miss.DebugString(), err)
			}
		} else {
			if errText(gerr) != "property access on non-object" || errText(serr) != "property write on non-object" {
				t.Errorf("prop on %s: %q / %q", op.name, errText(gerr), errText(serr))
			}
			if refs(val) != 0 {
				t.Errorf("failed SetPropNamed(%s) left the value at refs = %d", op.name, refs(val))
			}
		}
		if refs(op.v) != before {
			t.Errorf("property access changed the refcount of its %s receiver", op.name)
		}
	}
	// A shapeless object rejects undeclared writes and still consumes.
	bare := rt.ObjV(h.NewObject(&rt.Class{Name: "Bare", PropNames: map[string]int{}, Methods: map[string]int{}}))
	val := h.NewStr("v")
	if err := rt.SetPropNamed(h, bare, "x", val); errText(err) != "undefined property Bare::$x" || refs(val) != 0 {
		t.Errorf("shapeless write: %q, value refs = %d", errText(err), refs(val))
	}
}

func TestInstanceOfAndThrowEveryKind(t *testing.T) {
	h := rt.NewHeap()
	for _, op := range everyKind(h) {
		if got := rt.InstanceOf(op.v, "Box"); got != (op.name == "Obj") {
			t.Errorf("%s instanceof Box = %v", op.name, got)
		}
		if rt.InstanceOf(op.v, "Other") {
			t.Errorf("%s instanceof Other", op.name)
		}
		h.IncRef(op.v)
		before := refs(op.v)
		err := rt.ThrowValue(h, op.v)
		if op.name == "Obj" {
			ge, ok := err.(*rt.Error)
			if !ok || ge.Obj != op.v.AsObj() || refs(op.v) != before {
				t.Errorf("throw Obj: %v (the error must own the operand's reference)", err)
			}
			continue
		}
		if errText(err) != "can only throw objects" {
			t.Errorf("throw %s: %q", op.name, errText(err))
		}
		if before > 0 && refs(op.v) != before-1 {
			t.Errorf("throw %s: refs %d -> %d, want the operand consumed", op.name, before, refs(op.v))
		}
	}
}
