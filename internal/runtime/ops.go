package runtime

import (
	"math"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/types"
)

// This file implements the semantics of the arithmetic, comparison,
// and string operators. These are shared by the interpreter and by
// the JIT's out-of-line helpers (the JIT open-codes only the
// type-specialized fast paths).

// Add implements the guest + operator. Int+Int stays Int (this subset
// wraps rather than promoting on overflow); any Dbl operand promotes;
// Arr+Arr is PHP array union.
func Add(h *Heap, a, b Value) (Value, error) {
	switch {
	case a.Kind == types.KInt && b.Kind == types.KInt:
		return Int(a.AsInt() + b.AsInt()), nil
	case a.Kind == types.KArr && b.Kind == types.KArr:
		return arrayUnion(h, a.AsArr(), b.AsArr()), nil
	case a.Kind&types.KNum != 0 || b.Kind&types.KNum != 0,
		a.Kind&(types.KNull|types.KBool|types.KStr) != 0 &&
			b.Kind&(types.KNull|types.KBool|types.KStr|types.KNum|types.KUninit) != 0:
		if a.Kind == types.KDbl || b.Kind == types.KDbl {
			return Dbl(a.ToDbl() + b.ToDbl()), nil
		}
		return Int(a.ToInt() + b.ToInt()), nil
	default:
		return Null(), NewError("unsupported operand types for +")
	}
}

func arrayUnion(h *Heap, a, b *Array) Value {
	res := a.clone(h)
	b.Each(func(k, v Value) bool {
		if _, ok := res.Get(k); !ok {
			h.IncRef(v)
			res = res.Set(h, k, v)
		}
		return true
	})
	return ArrV(res)
}

// Sub, Mul implement - and *.
func Sub(a, b Value) (Value, error) {
	return arith(a, b, func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y })
}
func Mul(a, b Value) (Value, error) {
	return arith(a, b, func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y })
}

func arith(a, b Value, fi func(int64, int64) int64, fd func(float64, float64) float64) (Value, error) {
	if a.Kind == types.KInt && b.Kind == types.KInt {
		return Int(fi(a.AsInt(), b.AsInt())), nil
	}
	if a.Kind&(types.KArr|types.KObj) != 0 || b.Kind&(types.KArr|types.KObj) != 0 {
		return Null(), NewError("unsupported operand types")
	}
	if a.Kind == types.KDbl || b.Kind == types.KDbl {
		return Dbl(fd(a.ToDbl(), b.ToDbl())), nil
	}
	return Int(fi(a.ToInt(), b.ToInt())), nil
}

// Div implements /. Integer division producing a remainder yields a
// double, as in PHP.
func Div(a, b Value) (Value, error) {
	if a.Kind&(types.KArr|types.KObj) != 0 || b.Kind&(types.KArr|types.KObj) != 0 {
		return Null(), NewError("unsupported operand types for /")
	}
	if a.Kind == types.KInt && b.Kind == types.KInt {
		if b.AsInt() == 0 {
			return Null(), NewError("division by zero")
		}
		if a.AsInt()%b.AsInt() == 0 {
			return Int(a.AsInt() / b.AsInt()), nil
		}
		return Dbl(float64(a.AsInt()) / float64(b.AsInt())), nil
	}
	bd := b.ToDbl()
	if bd == 0 {
		return Null(), NewError("division by zero")
	}
	return Dbl(a.ToDbl() / bd), nil
}

// Mod implements %.
func Mod(a, b Value) (Value, error) {
	bi := b.ToInt()
	if bi == 0 {
		return Null(), NewError("modulo by zero")
	}
	return Int(a.ToInt() % bi), nil
}

// Neg implements unary minus: doubles negate as doubles, everything
// else through its integer value.
func Neg(a Value) Value {
	if a.Kind == types.KDbl {
		return Dbl(-a.AsDbl())
	}
	return Int(-a.ToInt())
}

// IncDec implements ++/-- on a variable slot and returns the
// expression's value (the old value for the postfix forms). Null and
// unset variables count up from null to 1 and stay null counting
// down, as in PHP.
func IncDec(slot *Value, inc, post bool) (Value, error) {
	old := *slot
	var nv Value
	switch old.Kind {
	case types.KInt:
		if inc {
			nv = Int(old.AsInt() + 1)
		} else {
			nv = Int(old.AsInt() - 1)
		}
	case types.KDbl:
		if inc {
			nv = Dbl(old.AsDbl() + 1)
		} else {
			nv = Dbl(old.AsDbl() - 1)
		}
	case types.KNull, types.KUninit:
		old, nv = Null(), Null()
		if inc {
			nv = Int(1)
		}
	default:
		return Null(), NewError("cannot increment/decrement %s", old.Type())
	}
	*slot = nv
	if post {
		return old, nil
	}
	return nv, nil
}

// Concat implements the . operator over any number of operands (the
// ConcatN bytecode): one counted string, its buffer sized for the whole
// result, numbers rendered straight into it.
func Concat(h *Heap, parts []Value) Value {
	buf := h.strBuf(concatLen(parts))
	for _, p := range parts {
		buf = appendValue(buf, p)
	}
	return h.newStrBuf(buf)
}

// ConcatAppend implements `$local .= parts` (the ConcatL bytecode): the
// local is read after its operands were evaluated. A string nothing
// else references is extended where it lies — behind len(Data) while
// its buffer has room, else in a buffer of the next size class, its old
// one going back on the heap's list — and keeps its box; anything else
// (a static or shared string, a non-string) is rendered into a fresh
// string that replaces it in the local. The operands are borrowed.
func ConcatAppend(h *Heap, local *Value, parts []Value) {
	old := *local
	add := concatLen(parts)
	if old.Kind == types.KStr {
		if s := old.AsStr(); s.refs == 1 && !s.Static() {
			buf := s.buffer()
			if add <= cap(buf)-len(buf) {
				for _, p := range parts {
					buf = appendValue(buf, p)
				}
				s.setBuffer(buf)
				return
			}
			grown := append(h.appendBuf(len(buf)+add), buf...)
			for _, p := range parts {
				grown = appendValue(grown, p)
			}
			s.setBuffer(grown)
			h.parkBuf(buf)
			return
		}
	}
	buf := appendValue(h.appendBuf(valueLen(old)+add), old)
	for _, p := range parts {
		buf = appendValue(buf, p)
	}
	*local = h.newStrBuf(buf)
	h.DecRef(old)
}

// buffer is s's bytes as a slice whose capacity takes in its spare
// room: the whole buffer s holds. setBuffer makes buf (that slice,
// appended to, or a new one) s's data. Only the heap and ConcatAppend
// use the pair, on a box with one reference.
func (s *Str) buffer() []byte {
	n := len(s.Data)
	return unsafe.Slice(unsafe.StringData(s.Data), n+int(s.spare))[:n]
}

func (s *Str) setBuffer(buf []byte) {
	if len(buf) == 0 { // nothing StringData could find again
		s.Data, s.spare = "", 0
		return
	}
	s.Data = unsafe.String(unsafe.SliceData(buf), len(buf))
	s.spare = int32(min(cap(buf)-len(buf), math.MaxInt32))
}

// concatLen bounds the bytes the operands of a concatenation render to:
// exactly, but for a double (maxDoubleLen).
func concatLen(parts []Value) int {
	n := 0
	for _, p := range parts {
		n += valueLen(p)
	}
	return n
}

func valueLen(v Value) int {
	switch v.Kind {
	case types.KStr:
		return len(v.AsStr().Data)
	case types.KInt:
		return intLen(v.AsInt())
	case types.KDbl:
		return maxDoubleLen
	default:
		return len(v.ToString()) // "", "1", "Array", "Object(C)": no allocation but the last
	}
}

// intLen is the length of i in decimal.
func intLen(i int64) int {
	n, u := 1, uint64(i)
	if i < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// appendValue appends v as echo would render it.
func appendValue(buf []byte, v Value) []byte {
	switch v.Kind {
	case types.KStr:
		return append(buf, v.AsStr().Data...)
	case types.KInt:
		return strconv.AppendInt(buf, v.AsInt(), 10)
	case types.KDbl:
		return appendDouble(buf, v.AsDbl())
	default:
		return append(buf, v.ToString()...)
	}
}

// ToStr implements the (string) cast. The result is owned: a string
// operand comes back with one more reference, anything else renders
// into a fresh string.
func ToStr(h *Heap, v Value) Value {
	if v.Kind == types.KStr {
		h.IncRef(v)
		return v
	}
	return h.render(v)
}

// render is a fresh counted string of v as echo would print it,
// rendered straight into its buffer.
func (h *Heap) render(v Value) Value {
	return h.newStrBuf(appendValue(h.strBuf(valueLen(v)), v))
}

// Cmp returns -1, 0, or 1 with PHP's loose comparison semantics
// (numeric strings compare numerically, etc. — simplified).
func Cmp(a, b Value) int {
	switch {
	case a.Kind == types.KStr && b.Kind == types.KStr:
		return strings.Compare(a.AsStr().Data, b.AsStr().Data)
	case a.Kind == types.KBool || b.Kind == types.KBool:
		return boolCmp(a.Bool(), b.Bool())
	case a.IsNull() && b.IsNull():
		return 0
	default:
		x, y := a.ToDbl(), b.ToDbl()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
}

// Cond is a comparison condition code. The JIT's CmpInt/CmpDbl/CmpStr
// immediates use the same numbering.
type Cond int64

const (
	CondLT Cond = iota
	CondLE
	CondGT
	CondGE
	CondEQ
	CondNE
)

// Compare evaluates `a <cond> b`: the relational conditions order by
// Cmp, equality is LooseEq.
func Compare(c Cond, a, b Value) bool {
	switch c {
	case CondLT:
		return Cmp(a, b) < 0
	case CondLE:
		return Cmp(a, b) <= 0
	case CondGT:
		return Cmp(a, b) > 0
	case CondGE:
		return Cmp(a, b) >= 0
	case CondEQ:
		return LooseEq(a, b)
	default:
		return !LooseEq(a, b)
	}
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}

// LooseEq implements ==.
func LooseEq(a, b Value) bool {
	if a.Kind == types.KArr && b.Kind == types.KArr {
		return arrayEq(a.AsArr(), b.AsArr())
	}
	if a.Kind == types.KObj || b.Kind == types.KObj {
		return a.Kind == b.Kind && a.AsObj() == b.AsObj()
	}
	return Cmp(a, b) == 0
}

func arrayEq(a, b *Array) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Each(func(k, v Value) bool {
		bv, ok := b.Get(k)
		if !ok || !LooseEq(v, bv) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// StrictEq implements === (same type and value; same identity for
// objects; same order and strict-equal elements for arrays).
func StrictEq(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case types.KUninit, types.KNull:
		return true
	case types.KBool, types.KInt:
		return a.AsInt() == b.AsInt()
	case types.KDbl:
		return a.AsDbl() == b.AsDbl()
	case types.KStr:
		return a.AsStr().Data == b.AsStr().Data
	case types.KObj:
		return a.AsObj() == b.AsObj()
	case types.KArr:
		return arraySame(a.AsArr(), b.AsArr())
	}
	return false
}

func arraySame(a, b *Array) bool {
	if a.Len() != b.Len() {
		return false
	}
	type kv struct{ k, v Value }
	var as, bs []kv
	a.Each(func(k, v Value) bool { as = append(as, kv{k, v}); return true })
	b.Each(func(k, v Value) bool { bs = append(bs, kv{k, v}); return true })
	for i := range as {
		if !StrictEq(as[i].k, bs[i].k) || !StrictEq(as[i].v, bs[i].v) {
			return false
		}
	}
	return true
}
