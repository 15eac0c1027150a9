package runtime_test

import (
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	rt "repro/internal/runtime"
	"repro/internal/types"
)

// The static typing of HHBC (hhbc.InstrTypes, runtime.Builtin.Ret) is
// what hhbbc asserts and what the JIT specializes on, so it must
// over-approximate what the interpreter's operations really produce:
// for every operation, over one value of each kind and over every
// union of two kinds per operand, the dynamic result's type is a
// subtype of the static prediction.

// widenings returns v's type and its union with the type of every
// other kind: the operand types a value of that kind can hide behind.
func widenings(v rt.Value, all []operand) []types.Type {
	out := []types.Type{v.Type()}
	for _, o := range all {
		out = append(out, v.Type().Union(o.v.Type()))
	}
	return out
}

func TestStaticTypingCoversDynamicResults(t *testing.T) {
	h := rt.NewHeap()
	all := everyKind(h)
	u := hhbc.NewUnit()
	fn := &hhbc.Func{Name: "f", NumLocals: 1}
	predict := func(in hhbc.Instr, ops []types.Type, local types.Type) (types.Type, types.Type) {
		push, localOut := hhbc.InstrTypes(u, fn, in, ops, local)
		return push[0], localOut
	}

	binary := []hhbc.Op{hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul, hhbc.OpDiv, hhbc.OpMod,
		hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte, hhbc.OpEq, hhbc.OpNeq, hhbc.OpSame, hhbc.OpNSame}
	for _, op := range binary {
		for _, a := range all {
			for _, b := range all {
				r, err := interp.Binop(h, op, a.v, b.v)
				if err != nil {
					continue // a raise produces no value
				}
				for _, ta := range widenings(a.v, all) {
					for _, tb := range widenings(b.v, all) {
						if want, _ := predict(hhbc.Instr{Op: op}, []types.Type{ta, tb}, types.TBottom); !r.Type().SubtypeOf(want) {
							t.Errorf("%s(%s, %s) = %s, typed %s from (%s, %s)", op, a.name, b.name, r.Type(), want, ta, tb)
						}
					}
				}
			}
		}
	}

	for _, a := range all {
		for _, b := range all {
			r := rt.Concat(h, []rt.Value{a.v, b.v, a.v})
			if want, _ := predict(hhbc.Instr{Op: hhbc.OpConcatN, A: 3}, nil, types.TBottom); !r.Type().SubtypeOf(want) {
				t.Errorf("ConcatN(%s, %s, %s) = %s, typed %s", a.name, b.name, a.name, r.Type(), want)
			}
		}
	}

	unary := map[hhbc.Op]func(rt.Value) rt.Value{
		hhbc.OpNeg:        rt.Neg,
		hhbc.OpNot:        func(v rt.Value) rt.Value { return rt.Bool(!v.Bool()) },
		hhbc.OpCastBool:   func(v rt.Value) rt.Value { return rt.Bool(v.Bool()) },
		hhbc.OpCastInt:    func(v rt.Value) rt.Value { return rt.Int(v.ToInt()) },
		hhbc.OpCastDouble: func(v rt.Value) rt.Value { return rt.Dbl(v.ToDbl()) },
		hhbc.OpCastString: func(v rt.Value) rt.Value { return rt.ToStr(h, v) },
	}
	for op, eval := range unary {
		for _, a := range all {
			r := eval(a.v)
			for _, ta := range widenings(a.v, all) {
				if want, _ := predict(hhbc.Instr{Op: op}, []types.Type{ta}, types.TBottom); !r.Type().SubtypeOf(want) {
					t.Errorf("%s(%s) = %s, typed %s from %s", op, a.name, r.Type(), want, ta)
				}
			}
		}
	}

	for form := int32(hhbc.PreInc); form <= hhbc.PostDec; form++ {
		for _, a := range all {
			slot := a.v
			r, err := rt.IncDec(&slot, form == hhbc.PreInc || form == hhbc.PostInc, form == hhbc.PostInc || form == hhbc.PostDec)
			if err != nil {
				continue
			}
			for _, ta := range widenings(a.v, all) {
				push, local := predict(hhbc.Instr{Op: hhbc.OpIncDecL, B: form}, nil, ta)
				if !r.Type().SubtypeOf(push) || !slot.Type().SubtypeOf(local) {
					t.Errorf("IncDecL form %d on %s: value %s in a %s slot, typed %s in a %s slot from %s",
						form, a.name, r.Type(), slot.Type(), push, local, ta)
				}
			}
		}
	}

	elemStores := map[hhbc.Op]func(slot *rt.Value) error{
		hhbc.OpConcatL:    func(slot *rt.Value) error { rt.ConcatAppend(h, slot, []rt.Value{rt.Int(1)}); return nil },
		hhbc.OpArrSetL:    func(slot *rt.Value) error { return rt.ElemSet(h, slot, rt.Int(0), rt.Int(1)) },
		hhbc.OpArrAppendL: func(slot *rt.Value) error { return rt.ElemAppend(h, slot, rt.Int(1)) },
		hhbc.OpArrUnsetL:  func(slot *rt.Value) error { rt.ElemUnset(h, slot, rt.Int(0)); return nil },
	}
	for op, store := range elemStores {
		for _, a := range everyKind(h) { // fresh: the stores mutate an unshared array in place
			slot, before := a.v, widenings(a.v, all)
			if store(&slot) != nil {
				continue
			}
			for _, ta := range before {
				if _, local := predict(hhbc.Instr{Op: op}, []types.Type{types.TInt, types.TInt}, ta); !slot.Type().SubtypeOf(local) {
					t.Errorf("%s leaves %s in a slot that held %s, typed %s from %s", op, slot.Type(), a.name, local, ta)
				}
			}
		}
	}

	env := &interp.Env{Classes: map[string]*rt.Class{"Box": boxClass()}}
	for _, hint := range []string{"", "int", "float", "string", "bool", "array", "Box"} {
		for _, nullable := range []bool{false, true} {
			fn.Params = []hhbc.Param{{Name: "p", TypeHint: hint, Nullable: nullable && hint != ""}}
			for _, a := range all[1:] { // not Uninit: a missing argument is bound to its default or Null
				slot := a.v
				if env.VerifyParam(fn, 0, &slot) != nil {
					continue
				}
				for _, ta := range widenings(a.v, all) {
					if _, local := predict(hhbc.Instr{Op: hhbc.OpVerifyParamType}, nil, ta); !slot.Type().SubtypeOf(local) {
						t.Errorf("VerifyParamType(nullable %v %q) leaves %s for %s, typed %s from %s",
							nullable, hint, slot.Type(), a.name, local, ta)
					}
				}
			}
		}
	}
}

// TestBuiltinRetCoversResults: a native's declared Ret holds for every
// argument kind (an undeclared one is InitCell). Variadic natives are
// tried with one to three arguments.
func TestBuiltinRetCoversResults(t *testing.T) {
	h := rt.NewHeap()
	ctx := &rt.BuiltinCtx{Heap: h}
	for _, name := range rt.BuiltinNames() {
		b, _ := rt.LookupBuiltin(name)
		if b.Ret.IsBottom() {
			t.Errorf("%s: Ret not set at registration", name)
		}
		arities := []int{b.Arity}
		if b.Arity < 0 {
			arities = []int{1, 2, 3}
		}
		for _, n := range arities {
			args := make([]rt.Value, n)
			var try func(i int)
			try = func(i int) {
				if i == n {
					if r, err := b.Fn(ctx, args); err == nil && !r.Type().SubtypeOf(b.Ret) {
						t.Errorf("%s(%d args) returned %s, declared %s", name, n, r.Type(), b.Ret)
					}
					return
				}
				for _, o := range everyKind(h)[1:] { // not Uninit: the stack never holds it
					args[i] = o.v
					try(i + 1)
				}
			}
			try(0)
		}
	}
}
