package runtime

import "repro/internal/types"

// Element access on array-typed operands, shared by the interpreter's
// array bytecodes and the JIT's out-of-line array helpers (the JIT
// open-codes only the packed-array/int-key read). One convention
// holds throughout: operands are borrowed, results are owned, and a
// value handed over to be stored is consumed even when the store
// fails.

// ElemGet reads base[key]; a missing element reads as null. local
// names the variable base was loaded from ("" for a stack operand)
// and only shapes the error text.
func ElemGet(h *Heap, base, key Value, local string) (Value, error) {
	if base.Kind != types.KArr {
		if local != "" {
			return Null(), NewError("cannot index non-array local $%s", local)
		}
		return Null(), NewError("cannot index non-array")
	}
	el, _ := base.AsArr().Get(key)
	if el.Kind == types.KUninit {
		el = Null()
	}
	h.IncRef(el)
	return el, nil
}

// ElemSet implements `$slot[key] = val`: an unset or null variable
// auto-vivifies to an empty array, a shared array is copied first.
func ElemSet(h *Heap, slot *Value, key, val Value) error {
	if slot.IsNull() {
		*slot = ArrV(h.NewMixed(0))
	}
	if slot.Kind != types.KArr {
		h.DecRef(val)
		return NewError("cannot write index of non-array")
	}
	*slot = ArrV(slot.AsArr().Set(h, key, val))
	return nil
}

// ElemAppend implements `$slot[] = val`, auto-vivifying like ElemSet.
func ElemAppend(h *Heap, slot *Value, val Value) error {
	if slot.IsNull() {
		*slot = ArrV(h.NewPacked(0))
	}
	if slot.Kind != types.KArr {
		h.DecRef(val)
		return NewError("cannot append to non-array")
	}
	*slot = ArrV(slot.AsArr().Append(h, val))
	return nil
}

// ElemUnset implements `unset($slot[key])`; a non-array is left alone.
func ElemUnset(h *Heap, slot *Value, key Value) {
	if slot.Kind == types.KArr {
		*slot = ArrV(slot.AsArr().Remove(h, key))
	}
}

// ElemExists implements array_key_exists on a variable: false for
// anything but an array holding key.
func ElemExists(base, key Value) bool {
	if base.Kind != types.KArr {
		return false
	}
	_, ok := base.AsArr().Get(key)
	return ok
}

// AddElem and AddNewElem build array literals: arr's reference moves
// into the result, so arr is consumed like val (both also on failure).
func AddElem(h *Heap, arr, key, val Value) (Value, error) {
	if arr.Kind != types.KArr {
		h.DecRef(val)
		h.DecRef(arr)
		return Null(), NewError("AddElemC on non-array")
	}
	return ArrV(arr.AsArr().Set(h, key, val)), nil
}

func AddNewElem(h *Heap, arr, val Value) (Value, error) {
	if arr.Kind != types.KArr {
		h.DecRef(val)
		h.DecRef(arr)
		return Null(), NewError("AddNewElemC on non-array")
	}
	return ArrV(arr.AsArr().Append(h, val)), nil
}
