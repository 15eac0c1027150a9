package hhbc

import (
	"repro/internal/runtime"
	"repro/internal/types"
)

// The static typing of HHBC: what each instruction pushes and what it
// leaves in its local, as pure functions of operand and local types.
// hhbbc runs them over whole functions with unions at joins, the
// tracelet selector over one path with guarded (specific) types, and
// the HHIR builder calls the leaf rules where it tracks a type itself.
// Every rule over-approximates what the interpreter can produce from
// values of the given types (runtime's semantics_test checks that);
// an instruction that raises produces nothing, so any answer is sound
// for it.

var scalarHints = map[string]types.Type{"int": types.TInt, "float": types.TDbl,
	"string": types.TStr, "bool": types.TBool, "array": types.TArr}

// HintType is the type a parameter holds once VerifyParamType has
// passed: Cell when unhinted, instances of the class for any other
// name.
func HintType(p Param) types.Type {
	if p.TypeHint == "" {
		return types.TCell
	}
	t, scalar := scalarHints[p.TypeHint]
	if !scalar {
		t = types.ObjOfClass(p.TypeHint, false)
	}
	if p.Nullable {
		t = t.Union(types.TNull)
	}
	return t
}

// VerifiedParamType is the type of a parameter of type t after
// VerifyParamType: an Int under a float hint is widened to Dbl, what
// the hint rejects is gone.
func VerifiedParamType(p Param, t types.Type) types.Type {
	if p.TypeHint == "float" && t.Maybe(types.TInt) {
		t = types.FromKind(t.Kind()&^types.KInt | types.KDbl)
	}
	return Refine(t, HintType(p))
}

// Refine narrows t by a fact known to hold (an assertion, a passed
// check). Disjoint knowledge means the path is dead; the fact wins.
func Refine(t, fact types.Type) types.Type {
	if nt := t.Intersect(fact); !nt.IsBottom() {
		return nt
	}
	return fact
}

// CGetType is the type of a local read onto the stack: Uninit reads
// as Null.
func CGetType(t types.Type) types.Type {
	if t.Maybe(types.TUninit) {
		return types.FromKind(t.Kind()&^types.KUninit | types.KNull)
	}
	return t
}

// ArithType is the result type of + - *: two arrays union, other
// non-numeric operands coerce to numbers, and with an object (or
// possibly two arrays) among wider types it is anybody's guess.
func ArithType(a, b types.Type) types.Type {
	switch {
	case a.SubtypeOf(types.TInt) && b.SubtypeOf(types.TInt):
		return types.TInt
	case a.SubtypeOf(types.TNum) && b.SubtypeOf(types.TNum):
		return DivType(a, b) // not both Int: like a quotient, Dbl if either surely is
	case a.SubtypeOf(types.TArr) && b.SubtypeOf(types.TArr):
		return types.TArr
	case a.Maybe(types.TObj) || b.Maybe(types.TObj) || a.Maybe(types.TArr) && b.Maybe(types.TArr):
		return types.TInitCell
	default:
		return types.TNum
	}
}

// DivType is the result type of /: a Dbl if either operand surely is
// one, else either kind of number (Int/Int may come out either way).
func DivType(a, b types.Type) types.Type {
	if a.SubtypeOf(types.TDbl) || b.SubtypeOf(types.TDbl) {
		return types.TDbl
	}
	return types.TNum
}

// NegType is the result type of unary minus: everything but a double
// negates through its integer value.
func NegType(a types.Type) types.Type {
	switch {
	case a.SubtypeOf(types.TDbl):
		return types.TDbl
	case !a.Maybe(types.TDbl):
		return types.TInt
	default:
		return types.TNum
	}
}

// IncDecType is the type IncDecL leaves in a local of type t: numbers
// stay what they are, null and unset count up to 1 and stay null
// counting down, anything else raises (Bottom when t allows nothing
// else).
func IncDecType(t types.Type, inc bool) types.Type {
	k := t.Kind() & types.KNum
	if t.Kind()&(types.KNull|types.KUninit) != 0 {
		if inc {
			k |= types.KInt
		} else {
			k |= types.KNull
		}
	}
	return types.FromKind(k)
}

// IterKeyType is the type of a foreach key.
var IterKeyType = types.FromKind(types.KInt | types.KStr)

// ElemLocalType is the type of an array-holding local of type t after
// ArrSetL, ArrAppendL or ArrUnsetL: writes auto-vivify or raise, an
// append keeps the array kind, an unset may leave a packed array mixed
// and leaves a non-array alone.
func ElemLocalType(op Op, t types.Type) types.Type {
	isArr := t.SubtypeOf(types.TArr) && !t.IsBottom()
	switch {
	case op == OpArrAppendL && isArr:
		return t
	case op == OpArrUnsetL && !isArr:
		return t
	}
	return types.TArr
}

// InstrTypes types one instruction of f: ops are the types of the
// in.NumPop() cells it pops (deepest first) and local the type of the
// local it names (in.LocalSlot; ignored when it names none). It
// returns the in.NumPush() types pushed, deepest first, and the type
// of that local afterwards. AssertRAStk, which retypes a cell in
// place, is the caller's to apply.
func InstrTypes(u *Unit, f *Func, in Instr, ops []types.Type, local types.Type) (push [2]types.Type, localOut types.Type) {
	t := &push[0]
	localOut = local
	switch in.Op {
	case OpInt, OpCastInt, OpMod, OpPrint:
		*t = types.TInt
	case OpDouble, OpCastDouble:
		*t = types.TDbl
	case OpString, OpCastString, OpConcatN:
		*t = types.TStr
	case OpTrue, OpFalse, OpIsTypeL, OpNot, OpCastBool, OpAKExistsL, OpInstanceOfD,
		OpGt, OpGte, OpLt, OpLte, OpEq, OpNeq, OpSame, OpNSame:
		*t = types.TBool
	case OpNull:
		*t = types.TNull

	case OpDup:
		push = [2]types.Type{ops[0], ops[0]}
	case OpCGetL:
		*t = CGetType(local)
	case OpCGetL2:
		push = [2]types.Type{CGetType(local), ops[0]}
	case OpPopL:
		localOut = ops[0]
	case OpSetL:
		*t, localOut = ops[0], ops[0]
	case OpPushL:
		*t, localOut = local, types.TUninit
	case OpUnsetL:
		localOut = types.TUninit
	case OpIncDecL:
		localOut = IncDecType(local, in.B == PreInc || in.B == PostInc)
		*t = localOut
		if in.B == PostInc || in.B == PostDec {
			*t = CGetType(local)
		}
	case OpAssertRATL:
		localOut = Refine(local, u.DecodeRAT(in.B, in.C))
	case OpVerifyParamType:
		localOut = VerifiedParamType(f.Params[in.A], local)

	case OpAdd, OpSub, OpMul:
		*t = ArithType(ops[0], ops[1])
	case OpDiv:
		*t = DivType(ops[0], ops[1])
	case OpNeg:
		*t = NegType(ops[0])

	case OpCatch:
		*t = types.TObj
	case OpNewArray:
		*t = types.ArrOfKind(types.ArrayMixed)
	case OpNewPackedArray:
		*t = types.ArrOfKind(types.ArrayPacked)
	case OpAddElemC:
		*t = types.TArr
	case OpAddNewElemC:
		*t = ElemLocalType(OpArrAppendL, ops[0])
	case OpArrSetL, OpArrAppendL, OpArrUnsetL:
		localOut = ElemLocalType(in.Op, local)
	case OpConcatL:
		localOut = types.TStr
	case OpIterKey:
		*t = IterKeyType
	case OpArrIdx, OpArrGetL, OpIterValue, OpFCallD, OpFCallObjMethodD, OpCGetPropD:
		*t = types.TInitCell
	case OpFCallBuiltin:
		*t = types.TInitCell // an unknown native raises
		if b, ok := runtime.LookupBuiltin(u.Strings[in.B]); ok {
			*t = b.Ret
		}
	case OpNewObjD:
		*t = types.ObjOfClass(u.Strings[in.A], true)
	case OpThis:
		*t = types.TObj
		if f.Class != "" {
			*t = types.ObjOfClass(f.Class, false)
		}
	case OpSetPropD:
		*t = ops[1]
	}
	return push, localOut
}
