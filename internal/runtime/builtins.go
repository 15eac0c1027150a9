package runtime

import (
	"io"
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/types"
)

// BuiltinCtx is what builtin functions may touch: the guest heap and
// the request's output stream.
type BuiltinCtx struct {
	Heap *Heap
	Out  io.Writer
}

// Builtin is a native function callable via FCallBuiltin. Arguments
// are borrowed; the result is owned by the caller (counted results
// come with one reference).
type Builtin struct {
	Name string
	// Arity is the required argument count; -1 means variadic.
	Arity int
	Fn    func(ctx *BuiltinCtx, args []Value) (Value, error)
	// Cost is the simulated-cycle cost charged when JITed code calls
	// the builtin out of line.
	Cost uint64
	// Ret is the type of every result Fn can return: what hhbbc, the
	// tracelet selector and the HHIR builder assume of a call. Left
	// zero it is registered as InitCell.
	Ret types.Type
}

var builtinTable = map[string]*Builtin{}

// RegisterBuiltin adds b to the global builtin table.
func RegisterBuiltin(b *Builtin) {
	if b.Ret.IsBottom() {
		b.Ret = types.TInitCell
	}
	builtinTable[b.Name] = b
}

// LookupBuiltin finds a builtin by its case-insensitive name.
func LookupBuiltin(name string) (*Builtin, bool) {
	return LookupFold(builtinTable, name)
}

// LookupFold indexes m, whose keys are lower case, by name under PHP's
// case-insensitive rule for function and method names. The case is
// folded into a stack buffer, so neither a hit nor a miss allocates
// for an ASCII name of up to 64 bytes; any other takes strings.ToLower.
func LookupFold[V any](m map[string]V, name string) (V, bool) {
	var buf [64]byte
	if len(name) <= len(buf) {
		folded := buf[:len(name)]
		for i := 0; i < len(name); i++ {
			c := name[i]
			if c >= utf8.RuneSelf {
				folded = nil
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			folded[i] = c
		}
		if folded != nil {
			v, ok := m[string(folded)] // no conversion is allocated for a map index
			return v, ok
		}
	}
	v, ok := m[strings.ToLower(name)]
	return v, ok
}

// BuiltinNames returns the sorted names (for diagnostics).
func BuiltinNames() []string {
	names := make([]string, 0, len(builtinTable))
	for n := range builtinTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	reg := RegisterBuiltin
	reg(&Builtin{Name: "count", Arity: 1, Cost: 6, Ret: types.TInt, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		if a[0].Kind != types.KArr {
			return Int(1), nil
		}
		return Int(int64(a[0].AsArr().Len())), nil
	}})
	reg(&Builtin{Name: "strlen", Arity: 1, Cost: 6, Ret: types.TInt, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Int(int64(len(a[0].ToString()))), nil
	}})
	reg(&Builtin{Name: "substr", Arity: -1, Cost: 20, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		if len(a) < 2 {
			return Null(), NewError("substr expects at least 2 arguments")
		}
		s := a[0].ToString()
		start := int(a[1].ToInt())
		if start < 0 {
			start = len(s) + start
			if start < 0 {
				start = 0
			}
		}
		if start > len(s) {
			return ctx.Heap.NewStr(""), nil
		}
		end := len(s)
		if len(a) >= 3 {
			n := int(a[2].ToInt())
			if n < 0 {
				end = len(s) + n
			} else {
				end = start + n
			}
		}
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			end = start
		}
		return ctx.Heap.NewStr(s[start:end]), nil
	}})
	reg(&Builtin{Name: "strtoupper", Arity: 1, Cost: 15, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		return ctx.Heap.NewStr(strings.ToUpper(a[0].ToString())), nil
	}})
	reg(&Builtin{Name: "strtolower", Arity: 1, Cost: 15, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		return ctx.Heap.NewStr(strings.ToLower(a[0].ToString())), nil
	}})
	reg(&Builtin{Name: "strrev", Arity: 1, Cost: 15, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		s := []byte(a[0].ToString())
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		return ctx.Heap.NewStr(string(s)), nil
	}})
	reg(&Builtin{Name: "str_repeat", Arity: 2, Cost: 25, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		n := a[1].ToInt()
		if n < 0 || n > 1<<20 {
			return Null(), NewError("str_repeat: bad count")
		}
		return ctx.Heap.NewStr(strings.Repeat(a[0].ToString(), int(n))), nil
	}})
	reg(&Builtin{Name: "implode", Arity: 2, Cost: 30, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		if a[1].Kind != types.KArr {
			return Null(), NewError("implode expects array")
		}
		sep := a[0].ToString()
		var parts []string
		a[1].AsArr().Each(func(_, v Value) bool { parts = append(parts, v.ToString()); return true })
		return ctx.Heap.NewStr(strings.Join(parts, sep)), nil
	}})
	reg(&Builtin{Name: "abs", Arity: 1, Cost: 4, Ret: types.TNum, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		if a[0].Kind == types.KDbl {
			return Dbl(math.Abs(a[0].AsDbl())), nil
		}
		n := a[0].ToInt()
		if n < 0 {
			n = -n
		}
		return Int(n), nil
	}})
	reg(&Builtin{Name: "intval", Arity: 1, Cost: 5, Ret: types.TInt, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Int(a[0].ToInt()), nil
	}})
	reg(&Builtin{Name: "floatval", Arity: 1, Cost: 5, Ret: types.TDbl, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Dbl(a[0].ToDbl()), nil
	}})
	reg(&Builtin{Name: "strval", Arity: 1, Cost: 10, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		return ctx.Heap.NewStr(a[0].ToString()), nil
	}})
	reg(&Builtin{Name: "is_int", Arity: 1, Cost: 3, Ret: types.TBool, Fn: isKind(types.KInt)})
	reg(&Builtin{Name: "is_float", Arity: 1, Cost: 3, Ret: types.TBool, Fn: isKind(types.KDbl)})
	reg(&Builtin{Name: "is_string", Arity: 1, Cost: 3, Ret: types.TBool, Fn: isKind(types.KStr)})
	reg(&Builtin{Name: "is_array", Arity: 1, Cost: 3, Ret: types.TBool, Fn: isKind(types.KArr)})
	reg(&Builtin{Name: "is_bool", Arity: 1, Cost: 3, Ret: types.TBool, Fn: isKind(types.KBool)})
	reg(&Builtin{Name: "is_null", Arity: 1, Cost: 3, Ret: types.TBool, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Bool(a[0].IsNull()), nil
	}})
	reg(&Builtin{Name: "is_numeric", Arity: 1, Cost: 5, Ret: types.TBool, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Bool(a[0].Kind&types.KNum != 0), nil
	}})
	reg(&Builtin{Name: "array_keys", Arity: 1, Cost: 30, Ret: types.ArrOfKind(types.ArrayPacked), Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		if a[0].Kind != types.KArr {
			return Null(), NewError("array_keys expects array")
		}
		src := a[0].AsArr()
		keys := ctx.Heap.NewPacked(src.Len())
		src.Each(func(k, _ Value) bool {
			ctx.Heap.IncRef(k)
			keys.elems = append(keys.elems, k)
			return true
		})
		return ArrV(keys), nil
	}})
	reg(&Builtin{Name: "array_values", Arity: 1, Cost: 30, Ret: types.ArrOfKind(types.ArrayPacked), Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		if a[0].Kind != types.KArr {
			return Null(), NewError("array_values expects array")
		}
		src := a[0].AsArr()
		vals := ctx.Heap.NewPacked(src.Len())
		src.Each(func(_, v Value) bool {
			ctx.Heap.IncRef(v)
			vals.elems = append(vals.elems, v)
			return true
		})
		return ArrV(vals), nil
	}})
	reg(&Builtin{Name: "array_sum", Arity: 1, Cost: 20, Ret: types.TNum, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		if a[0].Kind != types.KArr {
			return Int(0), nil
		}
		var si int64
		var sd float64
		isDbl := false
		a[0].AsArr().Each(func(_, v Value) bool {
			if v.Kind == types.KDbl {
				isDbl = true
			}
			si += v.ToInt()
			sd += v.ToDbl()
			return true
		})
		if isDbl {
			return Dbl(sd), nil
		}
		return Int(si), nil
	}})
	reg(&Builtin{Name: "in_array", Arity: 2, Cost: 25, Ret: types.TBool, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		if a[1].Kind != types.KArr {
			return Bool(false), nil
		}
		found := false
		a[1].AsArr().Each(func(_, v Value) bool {
			if LooseEq(v, a[0]) {
				found = true
				return false
			}
			return true
		})
		return Bool(found), nil
	}})
	reg(&Builtin{Name: "array_key_exists", Arity: 2, Cost: 10, Ret: types.TBool, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		if a[1].Kind != types.KArr {
			return Bool(false), nil
		}
		_, ok := a[1].AsArr().Get(a[0])
		return Bool(ok), nil
	}})
	reg(&Builtin{Name: "max", Arity: -1, Cost: 10, Fn: minmax(1)})
	reg(&Builtin{Name: "min", Arity: -1, Cost: 10, Fn: minmax(-1)})
	reg(&Builtin{Name: "sqrt", Arity: 1, Cost: 8, Ret: types.TDbl, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Dbl(math.Sqrt(a[0].ToDbl())), nil
	}})
	reg(&Builtin{Name: "floor", Arity: 1, Cost: 4, Ret: types.TDbl, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Dbl(math.Floor(a[0].ToDbl())), nil
	}})
	reg(&Builtin{Name: "ceil", Arity: 1, Cost: 4, Ret: types.TDbl, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Dbl(math.Ceil(a[0].ToDbl())), nil
	}})
	reg(&Builtin{Name: "round", Arity: 1, Cost: 4, Ret: types.TDbl, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Dbl(math.Round(a[0].ToDbl())), nil
	}})
	reg(&Builtin{Name: "ord", Arity: 1, Cost: 4, Ret: types.TInt, Fn: func(_ *BuiltinCtx, a []Value) (Value, error) {
		s := a[0].ToString()
		if s == "" {
			return Int(0), nil
		}
		return Int(int64(s[0])), nil
	}})
	reg(&Builtin{Name: "chr", Arity: 1, Cost: 6, Ret: types.TStr, Fn: func(ctx *BuiltinCtx, a []Value) (Value, error) {
		return ctx.Heap.NewStr(string(rune(a[0].ToInt() & 0xff))), nil
	}})
}

func isKind(k types.Kind) func(*BuiltinCtx, []Value) (Value, error) {
	return func(_ *BuiltinCtx, a []Value) (Value, error) {
		return Bool(a[0].Kind == k), nil
	}
}

func minmax(dir int) func(*BuiltinCtx, []Value) (Value, error) {
	return func(ctx *BuiltinCtx, a []Value) (Value, error) {
		if len(a) == 0 {
			return Null(), NewError("max/min expects arguments")
		}
		vals := a
		if len(a) == 1 && a[0].Kind == types.KArr {
			vals = nil
			a[0].AsArr().Each(func(_, v Value) bool { vals = append(vals, v); return true })
			if len(vals) == 0 {
				return Bool(false), nil
			}
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if Cmp(v, best) == dir {
				best = v
			}
		}
		ctx.Heap.IncRef(best)
		return best, nil
	}
}
