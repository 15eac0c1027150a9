package runtime_test

import (
	"math"
	"reflect"
	goruntime "runtime"
	"testing"
	"unsafe"

	rt "repro/internal/runtime"
	"repro/internal/types"
)

// pointerWords counts the machine words of t the host GC has to scan.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Slice, reflect.String:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	default:
		return 0
	}
}

// TestValueLayout pins the host representation the whole VM copies on
// every register move, spill, local store and array slot.
func TestValueLayout(t *testing.T) {
	if sz := unsafe.Sizeof(rt.Value{}); sz > 24 {
		t.Errorf("sizeof(Value) = %d, want <= 24", sz)
	}
	if n := pointerWords(reflect.TypeOf(rt.Value{})); n != 1 {
		t.Errorf("Value has %d pointer words, want exactly 1", n)
	}
}

func TestValueScalarRoundTrips(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		v := rt.Int(i)
		if v.Kind != types.KInt || v.AsInt() != i {
			t.Errorf("Int(%d) read back as kind %v, %d", i, v.Kind, v.AsInt())
		}
	}

	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, d := range []float64{0, math.Copysign(0, -1), 1.5, -2.25,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, nanPayload} {
		v := rt.Dbl(d)
		if v.Kind != types.KDbl {
			t.Errorf("Dbl(%v) has kind %v", d, v.Kind)
		}
		// Compare bit patterns: -0.0 == 0.0 and NaN != NaN as floats.
		if got, want := math.Float64bits(v.AsDbl()), math.Float64bits(d); got != want {
			t.Errorf("Dbl(%v) read back as bits %#x, want %#x", d, got, want)
		}
	}
	if !math.Signbit(rt.Dbl(math.Copysign(0, -1)).AsDbl()) {
		t.Error("-0.0 lost its sign")
	}

	for _, b := range []bool{true, false} {
		v := rt.Bool(b)
		if v.Kind != types.KBool || v.AsBool() != b || v.Bool() != b {
			t.Errorf("Bool(%v) read back as kind %v, %v (truthy %v)", b, v.Kind, v.AsBool(), v.Bool())
		}
		if want := map[bool]int64{true: 1, false: 0}[b]; v.AsInt() != want {
			t.Errorf("Bool(%v).AsInt() = %d, want %d", b, v.AsInt(), want)
		}
	}

	for _, v := range []rt.Value{rt.Uninit(), rt.Null(), {Kind: types.KArr}} {
		if v.AsStr() != nil || v.AsArr() != nil || v.AsObj() != nil {
			t.Errorf("payload-less %v value carries a pointer", v.Kind)
		}
	}
}

func TestValuePointerRoundTrips(t *testing.T) {
	s := rt.InternStr("round-trip")
	if v := rt.StrV(s); v.Kind != types.KStr || v.AsStr() != s {
		t.Errorf("StrV lost its *Str: %p != %p", v.AsStr(), s)
	}
	h := rt.NewHeap()
	a := h.NewPacked(0)
	if v := rt.ArrV(a); v.Kind != types.KArr || v.AsArr() != a {
		t.Errorf("ArrV lost its *Array: %p != %p", v.AsArr(), a)
	}
	o := h.NewObject(&rt.Class{Name: "C"})
	if v := rt.ObjV(o); v.Kind != types.KObj || v.AsObj() != o {
		t.Errorf("ObjV lost its *Object: %p != %p", v.AsObj(), o)
	}
}

// TestValueKeepsPayloadAlive: the one pointer word must be a pointer
// the host GC traces. Each slot of the slice holds the only reference
// to its payload across two collections (with allocator churn between
// them, so memory freed by mistake would be reused) and is then read
// back through the typed accessors — under -race that is also a
// checkptr run over every unsafe conversion in value.go.
func TestValueKeepsPayloadAlive(t *testing.T) {
	h := rt.NewHeap()
	cls := &rt.Class{Name: "Kept", PropInit: []rt.Value{rt.Int(7)}}
	vals := make([]rt.Value, 0, 3*64)
	for i := 0; i < 64; i++ {
		vals = append(vals,
			h.NewStr(string(rune('a'+i%26))+"-only-reference"),
			rt.ArrV(h.NewPackedOf([]rt.Value{rt.Int(int64(i)), h.NewStr("elem")})),
			rt.ObjV(h.NewObject(cls)))
	}
	for round := 0; round < 2; round++ {
		goruntime.GC()
		for i := 0; i < 4096; i++ {
			churn = make([]byte, 48)
		}
	}
	for i := 0; i < len(vals); i += 3 {
		n := i / 3
		if got, want := vals[i].AsStr().Data, string(rune('a'+n%26))+"-only-reference"; got != want {
			t.Fatalf("string %d read back as %q, want %q", n, got, want)
		}
		arr := vals[i+1].AsArr()
		if el, ok := arr.GetIntKey(0); !ok || el.AsInt() != int64(n) {
			t.Fatalf("array %d element 0 read back as %v (ok=%v)", n, el.AsInt(), ok)
		}
		if el, _ := arr.GetIntKey(1); el.AsStr().Data != "elem" {
			t.Fatalf("array %d element 1 read back as %q", n, el.AsStr().Data)
		}
		obj := vals[i+2].AsObj()
		if obj.Class != cls || obj.GetPropSlot(0).AsInt() != 7 {
			t.Fatalf("object %d read back with class %v, prop %d", n, obj.Class, obj.GetPropSlot(0).AsInt())
		}
	}
}

// churn keeps the allocations above from being optimized away.
var churn []byte
