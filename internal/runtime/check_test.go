package runtime

import (
	"testing"

	"repro/internal/types"
)

// checkClasses is a small hierarchy, linked the way interp links one:
// interface I, interface J extending I, A implementing I, B extending A,
// C on its own, D implementing J. It is also registered with the
// lattice, which the oracle asks.
func checkClasses() map[string]*Class {
	defs := []struct {
		name, parent string
		ifaces       []string
	}{{"I", "", nil}, {"J", "", []string{"I"}}, {"A", "", []string{"I"}}, {"B", "A", nil}, {"C", "", nil}, {"D", "", []string{"J"}}}
	classes := map[string]*Class{}
	for id, d := range defs {
		c := &Class{Name: d.name, Ifaces: d.ifaces, ClassID: id + 1, Parent: classes[d.parent]}
		c.SetAncestorID(c.ClassID)
		for _, anc := range append([]string{d.parent}, d.ifaces...) {
			if a := classes[anc]; a != nil {
				c.AncestorBits[0] |= a.AncestorBits[0] // every ID is below 64
			}
		}
		classes[d.name] = c
		types.RegisterClass(d.name, d.parent, d.ifaces)
	}
	return classes
}

// checkValues is one value of every kind, with both string and both
// array kinds, and an instance of every class.
func checkValues(classes map[string]*Class) map[string]Value {
	h := NewHeap()
	mixed := h.NewMixed(1).Set(h, h.NewStr("k"), Int(1))
	return map[string]Value{
		"Uninit": Uninit(), "Null": Null(), "Bool": Bool(true), "Int": Int(3), "Dbl": Dbl(0.5),
		"literal": StrV(InternStr("lit")), "counted": h.NewStr("str"),
		"packed": ArrV(h.NewPackedOf([]Value{Int(1)})), "mixed": ArrV(mixed),
		"A": ObjV(&Object{Class: classes["A"]}), "B": ObjV(&Object{Class: classes["B"]}),
		"C": ObjV(&Object{Class: classes["C"]}), "D": ObjV(&Object{Class: classes["D"]}),
	}
}

// checkTypes are the lattice elements the guards and tests use: every
// kind and named union, static strings alone and in a union, both
// array kinds, exact and subclass objects of a class, a subclass, an
// interface and an unlinked name.
func checkTypes() []types.Type {
	ts := []types.Type{
		types.TBottom, types.TUninit, types.TNull, types.TBool, types.TInt, types.TDbl,
		types.TStr, types.TStaticStr, types.TArr, types.TObj, types.TNum, types.TUncounted,
		types.TCounted, types.TCell, types.TInitCell, types.TInitNull,
		types.ArrOfKind(types.ArrayPacked), types.ArrOfKind(types.ArrayMixed),
		types.TNull.Union(types.TStaticStr), types.TInt.Union(types.TStr),
		types.TUninit.Union(types.TNull), types.TArr.Union(types.TNull), types.TObj.Union(types.TNull),
	}
	for _, cls := range []string{"I", "J", "A", "B", "C", "D", "Z"} {
		ts = append(ts, types.ObjOfClass(cls, true), types.ObjOfClass(cls, false))
	}
	return ts
}

// oracle is the exact lattice type of v: Value.Type with the static
// refinement the live-translation type source adds.
func oracle(v Value) types.Type {
	if v.Kind == types.KStr && v.AsStr().Static() {
		return types.TStaticStr
	}
	return v.Type()
}

// TestCheckHoldsEveryKind: a compiled check answers what the lattice
// answers for the value's exact type, for every value kind against
// every lattice element.
func TestCheckHoldsEveryKind(t *testing.T) {
	classes := checkClasses()
	for name, v := range checkValues(classes) {
		for _, ty := range checkTypes() {
			c := NewCheck(ty, classes)
			if got, want := c.Holds(v), oracle(v).SubtypeOf(ty); got != want {
				t.Errorf("%s against %s: Holds = %v, lattice says %v", name, ty, got, want)
			}
		}
	}
	cell := NewCheck(types.TCell, classes)
	if cell.Holds(Value{}) {
		t.Error("the zero Value (a slot the frame lacks) satisfies a check")
	}
}

// FuzzCheckHolds builds a lattice type from unions and intersections of
// the test elements and checks a value of every kind against it, as
// TestCheckHoldsEveryKind does for the elements alone.
func FuzzCheckHolds(f *testing.F) {
	f.Add([]byte{0, 7, 18})
	f.Add([]byte{5, 1, 2, 60, 63})
	f.Add([]byte{11, 44, 47, 50, 57})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		classes := checkClasses()
		elems := checkTypes()
		ty := elems[int(data[0])%len(elems)]
		for _, b := range data[1:] {
			u := elems[int(b>>1)%len(elems)]
			if b&1 == 0 {
				ty = ty.Union(u)
			} else {
				ty = ty.Intersect(u)
			}
		}
		c := NewCheck(ty, classes)
		for name, v := range checkValues(classes) {
			if got, want := c.Holds(v), oracle(v).SubtypeOf(ty); got != want {
				t.Errorf("%s against %s: Holds = %v, lattice says %v", name, ty, got, want)
			}
		}
	})
}
