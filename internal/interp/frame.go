package interp

import (
	"repro/internal/hhbc"
	"repro/internal/runtime"
)

// Frame is the VM activation record shared between the interpreter
// and JITed code: both read and write the same locals, so on-stack
// replacement in either direction only needs a bytecode PC and an
// evaluation-stack prefix.
type Frame struct {
	Fn     *hhbc.Func
	Locals []runtime.Value
	Stack  []runtime.Value
	This   *runtime.Object
	Iters  []runtime.Iter
	PC     int

	// pendingExc carries the in-flight exception between unwinding
	// and the handler's Catch instruction.
	pendingExc *runtime.Object
}

// TakeFrame builds an activation for f, consuming the caller's
// references to args (extra args are released; missing ones get
// defaults or Null). The frame comes from the env's LIFO free list,
// so a warmed call path allocates nothing; the caller owns it until
// it hands it back with PutFrame, after which nothing may still hold
// the pointer.
func (e *Env) TakeFrame(f *hhbc.Func, this *runtime.Object, args []runtime.Value) *Frame {
	var fr *Frame
	if n := len(e.frames); n > 0 {
		fr = e.frames[n-1]
		e.frames[n-1] = nil
		e.frames = e.frames[:n-1]
	} else {
		fr = &Frame{}
	}
	fr.Fn, fr.This = f, this
	if f.NumLocals <= cap(fr.Locals) {
		fr.Locals = fr.Locals[:f.NumLocals]
	} else {
		fr.Locals = make([]runtime.Value, f.NumLocals)
	}
	for i := range fr.Locals {
		fr.Locals[i] = runtime.Uninit()
	}
	for i, a := range args {
		if i < len(f.Params) {
			fr.Locals[i] = a
		} else {
			e.Heap.DecRef(a)
		}
	}
	for i := len(args); i < len(f.Params); i++ {
		p := f.Params[i]
		if p.HasDefault {
			fr.Locals[i] = paramDefault(p)
		} else {
			fr.Locals[i] = runtime.Null()
		}
	}
	return fr
}

// PutFrame returns a finished frame (Release has run: it owns no
// guest references) to the free list. It is scrubbed to the full
// capacity of its slices first, so a parked frame pins no guest
// object for the host GC — popped stack slots and dropped locals
// still hold stale copies. The list never outgrows the deepest call
// chain the env has run.
func (e *Env) PutFrame(fr *Frame) {
	clear(fr.Locals[:cap(fr.Locals)])
	clear(fr.Stack[:cap(fr.Stack)])
	clear(fr.Iters[:cap(fr.Iters)])
	*fr = Frame{Locals: fr.Locals[:0], Stack: fr.Stack[:0], Iters: fr.Iters[:0]}
	e.frames = append(e.frames, fr)
}

// PooledFrames exposes the free list to the recycling tests.
func (e *Env) PooledFrames() []*Frame { return e.frames }

func paramDefault(p hhbc.Param) runtime.Value {
	return propDefault(hhbc.PropDef{
		DefaultKind: p.DefaultKind, DefaultInt: p.DefaultInt,
		DefaultDbl: p.DefaultDbl, DefaultStr: p.DefaultStr,
	})
}

// push / pop manage the evaluation stack.
func (fr *Frame) push(v runtime.Value) { fr.Stack = append(fr.Stack, v) }

func (fr *Frame) pop() runtime.Value {
	v := fr.Stack[len(fr.Stack)-1]
	fr.Stack = fr.Stack[:len(fr.Stack)-1]
	return v
}

func (fr *Frame) top() runtime.Value { return fr.Stack[len(fr.Stack)-1] }

// Release drops all frame-owned references (on return or unwind). It
// is the one frame teardown, shared by the interpreter, the machine's
// Ret and the VM's unwinder. Slice capacity is kept for the frame's
// next use.
//
// A frame owns its evaluation stack, its iterators and
// Locals[:Fn.NumLocals]. The slots past those are the extension the
// machine grows for inlined callees' locals: only a live inline
// context owns what is in them, and the machine's exit moves those
// values into the callee frames it materializes. Whatever is left there
// at teardown is scratch — the pointers an inlined callee's return
// already released — so it is reset without a DecRef.
func (fr *Frame) Release(e *Env) {
	for _, v := range fr.Stack {
		e.Heap.DecRef(v)
	}
	fr.Stack = fr.Stack[:0]
	for i, v := range fr.Locals {
		if i < fr.Fn.NumLocals {
			e.Heap.DecRef(v)
		}
		fr.Locals[i] = runtime.Uninit()
	}
	for i := range fr.Iters {
		if arr := fr.Iters[i].Arr(); arr != nil {
			e.Heap.DecRef(runtime.ArrV(arr))
			fr.Iters[i] = runtime.Iter{}
		}
	}
	fr.Iters = fr.Iters[:0]
}

// clearStack releases just the evaluation stack (entering a catch
// handler).
func (fr *Frame) clearStack(e *Env) {
	for _, v := range fr.Stack {
		e.Heap.DecRef(v)
	}
	fr.Stack = fr.Stack[:0]
}

// iter returns iterator id, nil when the slot is free.
func (fr *Frame) iter(id int32) *runtime.Iter {
	if int(id) < len(fr.Iters) && fr.Iters[id].Arr() != nil {
		return &fr.Iters[id]
	}
	return nil
}

func (fr *Frame) setIter(id int32, it runtime.Iter) {
	for int(id) >= len(fr.Iters) {
		fr.Iters = append(fr.Iters, runtime.Iter{})
	}
	fr.Iters[id] = it
}
