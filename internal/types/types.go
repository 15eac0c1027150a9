// Package types implements the runtime type lattice shared by the
// bytecode optimizer (hhbbc), the region selectors, and the HHIR
// compiler. A Type is a union of primitive kinds optionally refined by
// a specialization (array kind or object class), mirroring the type
// system the HHVM JIT uses for guards, assertions, and HHIR values.
package types

import (
	"sort"
	"strings"
)

// Kind is a bitset of primitive value kinds. A Type with exactly one
// bit set is "specific" in the paper's terminology.
type Kind uint16

const (
	KUninit Kind = 1 << iota // uninitialized local
	KNull
	KBool
	KInt
	KDbl
	KStr
	KArr
	KObj

	kindCount = 8
)

// Handy unions, named after their HHVM counterparts.
const (
	KNone      Kind = 0
	KInitNull       = KNull
	KUncounted      = KUninit | KNull | KBool | KInt | KDbl
	KCounted        = KStr | KArr | KObj
	KCell           = KUninit | KNull | KBool | KInt | KDbl | KStr | KArr | KObj
	KInitCell       = KCell &^ KUninit
	KNum            = KInt | KDbl
)

var kindNames = map[Kind]string{
	KUninit: "Uninit",
	KNull:   "Null",
	KBool:   "Bool",
	KInt:    "Int",
	KDbl:    "Dbl",
	KStr:    "Str",
	KArr:    "Arr",
	KObj:    "Obj",
}

// ArrayKind refines KArr: HHVM distinguishes packed (vector-like) from
// mixed (hash-like) arrays and specializes array access code on the
// kind.
type ArrayKind uint8

const (
	ArrayAny ArrayKind = iota
	ArrayPacked
	ArrayMixed
)

func (k ArrayKind) String() string {
	switch k {
	case ArrayPacked:
		return "Packed"
	case ArrayMixed:
		return "Mixed"
	default:
		return "Any"
	}
}

// Type is a union of kinds plus an optional specialization. The zero
// value is Bottom (no possible values).
type Type struct {
	bits Kind
	// static refines the KStr member of any union: every string of the
	// type is static (a unit literal in the intern table) and carries no
	// count. HHVM's StaticStr; unlike the other refinements it holds
	// beside other kinds, so Null|StaticStr is uncounted too.
	static bool
	// arrKind refines KArr when bits == KArr.
	arrKind ArrayKind
	// cls refines KObj when bits == KObj: the value is an instance of
	// exactly this class (exact=true) or this class or a subclass.
	cls   string
	exact bool
}

// Pre-built types.
var (
	TBottom    = Type{}
	TUninit    = Type{bits: KUninit}
	TNull      = Type{bits: KNull}
	TBool      = Type{bits: KBool}
	TInt       = Type{bits: KInt}
	TDbl       = Type{bits: KDbl}
	TStr       = Type{bits: KStr}
	TStaticStr = Type{bits: KStr, static: true}
	TArr       = Type{bits: KArr}
	TObj       = Type{bits: KObj}
	TNum       = Type{bits: KNum}
	TUncounted = Type{bits: KUncounted}
	TCounted   = Type{bits: KCounted}
	TCell      = Type{bits: KCell}
	TInitCell  = Type{bits: KInitCell}
	TInitNull  = Type{bits: KInitNull}
)

// FromKind returns the Type for a kind union with no specialization.
func FromKind(k Kind) Type { return Type{bits: k} }

// PackedArr and MixedArr are the specialized array types.
func ArrOfKind(ak ArrayKind) Type { return Type{bits: KArr, arrKind: ak} }

// ObjOfClass returns the type of instances of cls (or a subclass when
// exact is false).
func ObjOfClass(cls string, exact bool) Type {
	return Type{bits: KObj, cls: cls, exact: exact}
}

// Kind returns the kind bitset.
func (t Type) Kind() Kind { return t.bits }

// ArrayKind returns the array specialization, or ArrayAny.
func (t Type) ArrayKind() ArrayKind {
	if t.bits == KArr {
		return t.arrKind
	}
	return ArrayAny
}

// Class returns the object-class specialization ("" if none) and
// whether it is exact.
func (t Type) Class() (string, bool) { return t.cls, t.exact }

// IsBottom reports whether no value can have this type.
func (t Type) IsBottom() bool { return t.bits == 0 }

// IsSpecific reports whether exactly one primitive kind is possible
// ("Specific" in Table 1 of the paper).
func (t Type) IsSpecific() bool { return t.bits != 0 && t.bits&(t.bits-1) == 0 }

// IsSpecialized reports whether the type carries an array-kind or
// class refinement ("Specialized" in Table 1).
func (t Type) IsSpecialized() bool {
	return (t.bits == KArr && t.arrKind != ArrayAny) || (t.bits == KObj && t.cls != "")
}

// Counted reports whether every value of this type is reference
// counted; MaybeCounted whether any could be. A static string is not.
func (t Type) Counted() bool { return t.bits != 0 && t.bits&KUncounted == 0 && !t.static }
func (t Type) MaybeCounted() bool {
	counted := t.bits & KCounted
	if t.static {
		counted &^= KStr
	}
	return counted != 0
}

// Static reports whether every string of the type is static.
func (t Type) Static() bool { return t.static }

// Unstatic widens the type's strings to any string.
func (t Type) Unstatic() Type {
	t.static = false
	return t
}

// SubtypeOf reports whether every value of t is also a value of u.
func (t Type) SubtypeOf(u Type) bool {
	if t.bits == 0 {
		return true // Bottom is a subtype of everything
	}
	if t.bits&^u.bits != 0 {
		return false
	}
	if u.static && t.bits&KStr != 0 && !t.static {
		return false
	}
	// Specializations only constrain when u is specialized.
	if u.bits == KArr && u.arrKind != ArrayAny {
		if t.bits != KArr || t.arrKind != u.arrKind {
			return false
		}
	}
	if u.bits == KObj && u.cls != "" {
		if t.bits != KObj || t.cls == "" {
			return false
		}
		if u.exact {
			if !t.exact || t.cls != u.cls {
				return false
			}
		} else if t.cls != u.cls && !classTable.isSubclass(t.cls, u.cls) {
			return false
		}
	}
	return true
}

// Maybe reports whether the two types share any value.
func (t Type) Maybe(u Type) bool { return !t.Intersect(u).IsBottom() }

// Union returns the least upper bound.
func (t Type) Union(u Type) Type {
	if t.IsBottom() {
		return u
	}
	if u.IsBottom() {
		return t
	}
	r := Type{bits: t.bits | u.bits}
	// Static when every side that admits strings admits static ones only.
	r.static = r.bits&KStr != 0 && (t.static || t.bits&KStr == 0) && (u.static || u.bits&KStr == 0)
	if r.bits == KArr {
		if t.arrKind == u.arrKind {
			r.arrKind = t.arrKind
		}
	}
	if r.bits == KObj && t.cls != "" && u.cls != "" {
		if t.cls == u.cls {
			r.cls = t.cls
			r.exact = t.exact && u.exact
		} else if anc := classTable.commonAncestor(t.cls, u.cls); anc != "" {
			r.cls = anc
		}
	}
	return r
}

// Intersect returns the greatest lower bound.
func (t Type) Intersect(u Type) Type {
	r := Type{bits: t.bits & u.bits}
	if r.bits == 0 {
		return TBottom
	}
	r.static = r.bits&KStr != 0 && (t.static || u.static)
	if r.bits == KArr {
		ta, ua := t.arrKind, u.arrKind
		if t.bits != KArr {
			ta = ArrayAny
		}
		if u.bits != KArr {
			ua = ArrayAny
		}
		switch {
		case ta == ArrayAny:
			r.arrKind = ua
		case ua == ArrayAny || ta == ua:
			r.arrKind = ta
		default:
			return TBottom
		}
	}
	if r.bits == KObj {
		tc, te := t.cls, t.exact
		uc, ue := u.cls, u.exact
		if t.bits != KObj {
			tc = ""
		}
		if u.bits != KObj {
			uc = ""
		}
		switch {
		case tc == "":
			r.cls, r.exact = uc, ue
		case uc == "" || tc == uc:
			r.cls, r.exact = tc, te || ue
		case te && ue:
			return TBottom // exactly-A and exactly-B with A != B
		case te:
			if !classTable.isSubclass(tc, uc) {
				return TBottom
			}
			r.cls, r.exact = tc, true
		case ue:
			if !classTable.isSubclass(uc, tc) {
				return TBottom
			}
			r.cls, r.exact = uc, true
		case classTable.isSubclass(tc, uc):
			r.cls, r.exact = tc, false
		case classTable.isSubclass(uc, tc):
			r.cls, r.exact = uc, false
		default:
			return TBottom
		}
	}
	return r
}

// Unspecialize drops any array-kind, class or static-string refinement.
func (t Type) Unspecialize() Type { return Type{bits: t.bits} }

func (t Type) String() string {
	switch {
	case t.bits == 0:
		return "Bottom"
	case t.static: // no aggregate name says static; spelled out below
	case t.bits == KCell:
		return "Cell"
	case t.bits == KInitCell:
		return "InitCell"
	case t.bits == KUncounted:
		return "Uncounted"
	case t.bits == KCounted:
		return "Counted"
	case t.bits == KNum:
		return "Num"
	}
	var parts []string
	for i := 0; i < kindCount; i++ {
		k := Kind(1 << i)
		if t.bits&k == 0 {
			continue
		}
		name := kindNames[k]
		if k == KStr && t.static {
			name = "StaticStr"
		}
		if k == KArr && t.bits == KArr && t.arrKind != ArrayAny {
			name = "Arr=" + t.arrKind.String()
		}
		if k == KObj && t.bits == KObj && t.cls != "" {
			if t.exact {
				name = "Obj=" + t.cls
			} else {
				name = "Obj<=" + t.cls
			}
		}
		parts = append(parts, name)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}
