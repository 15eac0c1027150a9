// Package runtime implements the guest-language runtime: typed values,
// the explicit reference-counted heap (observable destructors,
// copy-on-write arrays — the two PHP features the paper calls out),
// classes and objects, and the builtin function table.
//
// The host Go garbage collector manages host memory; guest reference
// counts are explicit fields so that the JIT's IncRef/DecRef
// instructions and the RCE optimization have real, observable
// semantics.
package runtime

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/types"
)

// Value is the guest TypedValue: a kind tag plus a two-word payload,
// 24 bytes with exactly one pointer word (HHVM's TypedValue is 16).
// Scalars (Int, Bool as 0/1, Dbl as IEEE bits) live in bits; counted
// kinds keep their *Str / *Array / *Object in ptr. Exactly one of the
// two is meaningful for a given kind, so payloads are read through
// the As* accessors and written only by the constructors. Every
// register move, spill, local, array slot and frame copies a Value,
// and the host GC scans and write-barriers only the one pointer word.
type Value struct {
	Kind types.Kind
	bits uint64
	ptr  unsafe.Pointer
}

// Constructors.
func Uninit() Value { return Value{Kind: types.KUninit} }
func Null() Value   { return Value{Kind: types.KNull} }
func Bool(b bool) Value {
	v := Value{Kind: types.KBool}
	if b {
		v.bits = 1
	}
	return v
}
func Int(i int64) Value    { return Value{Kind: types.KInt, bits: uint64(i)} }
func Dbl(d float64) Value  { return Value{Kind: types.KDbl, bits: math.Float64bits(d)} }
func StrV(s *Str) Value    { return Value{Kind: types.KStr, ptr: unsafe.Pointer(s)} }
func ArrV(a *Array) Value  { return Value{Kind: types.KArr, ptr: unsafe.Pointer(a)} }
func ObjV(o *Object) Value { return Value{Kind: types.KObj, ptr: unsafe.Pointer(o)} }

// Payload accessors. Each is meaningful only for the kinds named; the
// pointer accessors return nil for a Value built without a payload
// (the KArr property-default marker).
func (v Value) AsInt() int64   { return int64(v.bits) }                // KInt; KBool reads 0/1
func (v Value) AsBool() bool   { return v.bits != 0 }                  // KBool
func (v Value) AsDbl() float64 { return math.Float64frombits(v.bits) } // KDbl
func (v Value) AsStr() *Str    { return (*Str)(v.ptr) }                // KStr
func (v Value) AsArr() *Array  { return (*Array)(v.ptr) }              // KArr
func (v Value) AsObj() *Object { return (*Object)(v.ptr) }             // KObj

// Bool reports the PHP truthiness of v.
func (v Value) Bool() bool {
	switch v.Kind {
	case types.KBool, types.KInt:
		return v.AsInt() != 0
	case types.KDbl:
		return v.AsDbl() != 0
	case types.KStr:
		return v.AsStr().Data != "" && v.AsStr().Data != "0"
	case types.KArr:
		return v.AsArr().Len() > 0
	case types.KObj:
		return true
	default:
		return false
	}
}

// IsNull reports Null or Uninit.
func (v Value) IsNull() bool { return v.Kind == types.KNull || v.Kind == types.KUninit }

// Counted reports whether v participates in reference counting.
func (v Value) Counted() bool { return v.Kind&types.KCounted != 0 }

// Type returns the most specific static type describing v, including
// array-kind and exact-class specializations.
func (v Value) Type() types.Type {
	switch v.Kind {
	case types.KArr:
		if v.AsArr().IsPacked() {
			return types.ArrOfKind(types.ArrayPacked)
		}
		return types.ArrOfKind(types.ArrayMixed)
	case types.KObj:
		return types.ObjOfClass(v.AsObj().Class.Name, true)
	default:
		return types.FromKind(v.Kind)
	}
}

// ToDbl converts numerics (and numeric strings) to float64.
func (v Value) ToDbl() float64 {
	switch v.Kind {
	case types.KInt, types.KBool:
		return float64(v.AsInt())
	case types.KDbl:
		return v.AsDbl()
	case types.KStr:
		f, _ := strconv.ParseFloat(v.AsStr().Data, 64)
		return f
	default:
		return 0
	}
}

// ToInt converts to int64 following PHP's (simplified) rules.
func (v Value) ToInt() int64 {
	switch v.Kind {
	case types.KInt, types.KBool:
		return v.AsInt()
	case types.KDbl:
		if math.IsNaN(v.AsDbl()) || math.IsInf(v.AsDbl(), 0) {
			return 0
		}
		return int64(v.AsDbl())
	case types.KStr:
		n, _ := strconv.ParseInt(v.AsStr().Data, 10, 64)
		return n
	default:
		return 0
	}
}

// ToString renders v the way echo would.
func (v Value) ToString() string {
	switch v.Kind {
	case types.KUninit, types.KNull:
		return ""
	case types.KBool:
		if v.AsBool() {
			return "1"
		}
		return ""
	case types.KInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case types.KDbl:
		return formatDouble(v.AsDbl())
	case types.KStr:
		return v.AsStr().Data
	case types.KArr:
		return "Array"
	case types.KObj:
		return "Object(" + v.AsObj().Class.Name + ")"
	default:
		return ""
	}
}

func formatDouble(d float64) string { return string(appendDouble(nil, d)) }

// appendDouble renders d as echo would; maxDoubleLen bounds what it
// appends ("-1.2345678901234E+308", or 15 digits and a sign).
func appendDouble(b []byte, d float64) []byte {
	if d == math.Trunc(d) && math.Abs(d) < 1e15 {
		return strconv.AppendFloat(b, d, 'f', -1, 64)
	}
	return strconv.AppendFloat(b, d, 'G', 14, 64)
}

const maxDoubleLen = 24

// DebugString renders a value for diagnostics (not guest-visible).
func (v Value) DebugString() string {
	switch v.Kind {
	case types.KUninit:
		return "Uninit"
	case types.KNull:
		return "null"
	case types.KBool:
		return strconv.FormatBool(v.AsBool())
	case types.KStr:
		return fmt.Sprintf("%q", v.AsStr().Data)
	case types.KArr:
		return fmt.Sprintf("Array(len=%d,refs=%d)", v.AsArr().Len(), v.AsArr().refs)
	case types.KObj:
		return fmt.Sprintf("Object(%s,refs=%d)", v.AsObj().Class.Name, v.AsObj().refs)
	default:
		return v.ToString()
	}
}

// Str is a counted guest string. A non-static Str is the one holder of
// the buffer Data's bytes live in, which its heap handed out and gets
// back, to hand out again, when the last reference dies: spare says how
// many bytes of it lie behind Data, so len(Data)+spare is its size.
// Only ConcatAppend writes them, only through a box nothing else
// references. So bytes read out of a string stay valid while the reader
// holds a reference to it, and no longer (DESIGN.md §6, "String bytes
// on the lists").
type Str struct {
	Data string
	refs int32
	// spare is -1 for static strings (unit literals), which are never
	// freed or written and skip refcounting, mirroring HHVM's static
	// string table.
	spare int32
}

// Refs returns the current reference count, 0 once freed (for tests
// and RCE verification).
func (s *Str) Refs() int32 { return liveRefs(s.refs) }

// Static marks and reports interned unit literals.
func (s *Str) Static() bool { return s.spare < 0 }

// internTable is the static string table shared by all loaded units.
// Interning happens at runtime too (LdStr), and worker VMs execute
// concurrently, so the table is a sync.Map: lock-free reads once a
// string is warm, append-only writes. It is never freed, so only unit
// literals go in, never a string a request computed.
var internTable sync.Map // string -> *Str

// InternStr returns the shared static string for s. The table keeps a
// copy of its own: s may be a view of a request's buffer (a substring
// of something large, an append buffer with its slack), which a
// process-wide table must not keep alive.
func InternStr(s string) *Str {
	if v, ok := internTable.Load(s); ok {
		return v.(*Str)
	}
	s = strings.Clone(s)
	v := &Str{Data: s, refs: 1, spare: -1}
	if prior, loaded := internTable.LoadOrStore(s, v); loaded {
		return prior.(*Str)
	}
	return v
}
