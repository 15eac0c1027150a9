// Package interp implements the HHBC interpreter: the fallback
// execution engine that cooperates with the JIT through OSR at any
// bytecode boundary. Frames are the shared VM state: JITed code
// side-exits by materializing a Frame and resuming here.
package interp

import (
	"fmt"
	"io"

	"repro/internal/hhbc"
	"repro/internal/runtime"
	"repro/internal/shapes"
	"repro/internal/types"
)

// Meter receives simulated-cycle charges. The machine simulator and
// the interpreter share one meter so mode comparisons are meaningful.
type Meter interface {
	Charge(cycles uint64)
}

// CallHook dispatches a guest call. The VM installs a hook that
// routes hot functions to JITed code; the default recursively
// interprets.
type CallHook func(f *hhbc.Func, this *runtime.Object, args []runtime.Value) (runtime.Value, error)

// EnterHook observes function entries (used for JIT triggering).
type EnterHook func(f *hhbc.Func)

// Env is the linked execution environment for one unit.
type Env struct {
	Unit    *hhbc.Unit
	Heap    *runtime.Heap
	Out     io.Writer
	Meter   Meter
	Classes map[string]*runtime.Class
	// classByID indexes the same classes by ClassID (entry 0 unused):
	// built once at link, shared like Classes.
	classByID []*runtime.Class

	// Shapes is the object-shape universe for this class table,
	// created at link time and shared (like Classes) across every
	// worker environment: compiled shape guards embed shape IDs, so
	// shape identity must be global across the shared code cache.
	Shapes *shapes.Tree

	// Call dispatches guest function calls; OnEnter observes entries
	// into interpreted functions.
	Call    CallHook
	OnEnter EnterHook

	// MaxDepth bounds guest recursion.
	MaxDepth int

	// OSRCheck, when set, is consulted at backward branches; returning
	// true makes Run return ErrOSR so the VM can re-enter JITed code
	// (on-stack replacement out of the interpreter).
	OSRCheck func(fr *Frame) bool

	depth int

	// frames is the LIFO free list behind TakeFrame/PutFrame.
	frames []*Frame
	// bctx is the one BuiltinCtx handed to every native call.
	bctx runtime.BuiltinCtx
}

// BuiltinCtx returns the context natives run with: the env's heap and
// its current output stream (SetOut may have changed it since the last
// call). Builtins use it only for the duration of the call.
func (e *Env) BuiltinCtx() *runtime.BuiltinCtx {
	e.bctx.Heap, e.bctx.Out = e.Heap, e.Out
	return &e.bctx
}

// ErrOSR signals that interpretation paused at an OSR point; the
// frame is consistent and fr.PC names the resume point.
var ErrOSR = fmt.Errorf("interp: OSR point reached")

// NewEnv links unit and returns an environment. The heap's destructor
// hook is installed to run guest __destruct methods through Call.
func NewEnv(u *hhbc.Unit, heap *runtime.Heap, out io.Writer) (*Env, error) {
	env := &Env{
		Unit: u, Heap: heap, Out: out,
		Classes:  map[string]*runtime.Class{},
		Shapes:   shapes.NewTree(),
		MaxDepth: 512,
	}
	env.Call = env.interpCall
	if err := env.link(); err != nil {
		return nil, err
	}
	heap.OnDestruct = func(obj *runtime.Object) {
		if id, ok := obj.Class.LookupMethod("__destruct"); ok {
			// Destructor failures are swallowed, as in PHP shutdown.
			_, _ = env.Call(u.Funcs[id], obj, nil)
		}
	}
	return env, nil
}

// NewEnvFrom derives a worker environment from an already-linked one.
// The class table is shared, not re-linked: compiled translations
// embed *runtime.Class pointers, so class identity must be global
// across every worker executing the shared code cache. Heap, output,
// call hooks, and recursion depth are per-worker.
func NewEnvFrom(base *Env, heap *runtime.Heap, out io.Writer) *Env {
	env := &Env{
		Unit: base.Unit, Heap: heap, Out: out,
		Classes:   base.Classes,
		classByID: base.classByID,
		Shapes:    base.Shapes,
		MaxDepth:  base.MaxDepth,
	}
	env.Call = env.interpCall
	heap.OnDestruct = func(obj *runtime.Object) {
		if id, ok := obj.Class.LookupMethod("__destruct"); ok {
			_, _ = env.Call(env.Unit.Funcs[id], obj, nil)
		}
	}
	return env
}

// link flattens class definitions into runtime classes.
func (e *Env) link() error {
	// Multiple passes to resolve parents declared in any order.
	defs := e.Unit.Classes
	done := map[string]*hhbc.ClassDef{}
	for _, d := range defs {
		done[d.Name] = d
	}
	var build func(name string, seen map[string]bool) (*runtime.Class, error)
	nextID := 1
	build = func(name string, seen map[string]bool) (*runtime.Class, error) {
		if c, ok := e.Classes[name]; ok {
			return c, nil
		}
		if seen[name] {
			return nil, fmt.Errorf("class hierarchy cycle at %s", name)
		}
		seen[name] = true
		def, ok := done[name]
		if !ok {
			return nil, fmt.Errorf("undefined class %s", name)
		}
		cls := &runtime.Class{
			Name:      name,
			Ifaces:    def.Ifaces,
			HasDtor:   def.HasDtor,
			PropNames: map[string]int{},
			Methods:   map[string]int{},
			ClassID:   nextID,
		}
		nextID++
		if def.Parent != "" {
			parent, err := build(def.Parent, seen)
			if err != nil {
				return nil, err
			}
			cls.Parent = parent
			cls.HasDtor = cls.HasDtor || parent.HasDtor
			for pname, slot := range parent.PropNames {
				cls.PropNames[pname] = slot
			}
			cls.PropInit = append(cls.PropInit, parent.PropInit...)
			for m, id := range parent.Methods {
				cls.Methods[m] = id
			}
		}
		for _, p := range def.Props {
			if _, exists := cls.PropNames[p.Name]; !exists {
				cls.PropNames[p.Name] = len(cls.PropInit)
				cls.PropInit = append(cls.PropInit, propDefault(p))
			} else {
				cls.PropInit[cls.PropNames[p.Name]] = propDefault(p)
			}
		}
		for m, id := range def.Methods {
			cls.Methods[m] = id
		}
		// Root shape: the declared layout in slot order with
		// default-value kinds. Interned by layout, so classes with
		// identical flattened properties share a root (one shape
		// guard then covers a class-polymorphic site).
		slots := make([]shapes.Slot, len(cls.PropInit))
		for pname, i := range cls.PropNames {
			slots[i].Name = pname
		}
		for i, v := range cls.PropInit {
			slots[i].Kind = v.Kind
		}
		cls.RootShape = e.Shapes.Root(slots)
		// Ancestor bitset for bitwise instanceof checks.
		cls.SetAncestorID(cls.ClassID)
		if cls.Parent != nil {
			for w, bits := range cls.Parent.AncestorBits {
				for len(cls.AncestorBits) <= w {
					cls.AncestorBits = append(cls.AncestorBits, 0)
				}
				cls.AncestorBits[w] |= bits
			}
		}
		for _, iface := range def.Ifaces {
			ic, err := build(iface, seen)
			if err != nil {
				return nil, err
			}
			for w, bits := range ic.AncestorBits {
				for len(cls.AncestorBits) <= w {
					cls.AncestorBits = append(cls.AncestorBits, 0)
				}
				cls.AncestorBits[w] |= bits
			}
		}
		e.Classes[name] = cls
		types.RegisterClass(name, def.Parent, def.Ifaces)
		return cls, nil
	}
	for _, d := range defs {
		if _, err := build(d.Name, map[string]bool{}); err != nil {
			return err
		}
	}
	e.classByID = make([]*runtime.Class, nextID)
	for _, c := range e.Classes {
		e.classByID[c.ClassID] = c
	}
	return nil
}

func propDefault(p hhbc.PropDef) runtime.Value {
	switch p.DefaultKind {
	case types.KInt:
		return runtime.Int(p.DefaultInt)
	case types.KDbl:
		return runtime.Dbl(p.DefaultDbl)
	case types.KBool:
		return runtime.Bool(p.DefaultInt != 0)
	case types.KStr:
		return runtime.StrV(runtime.InternStr(p.DefaultStr))
	case types.KArr:
		// Marker: fresh empty array per instance (see NewInstance).
		return runtime.Value{Kind: types.KArr}
	default:
		return runtime.Null()
	}
}

// NewInstance allocates an object of cls, materializing fresh arrays
// for array-typed property defaults.
func (e *Env) NewInstance(cls *runtime.Class) *runtime.Object {
	obj := e.Heap.NewObject(cls)
	for i, p := range obj.Props {
		if p.Kind == types.KArr && p.AsArr() == nil {
			obj.Props[i] = runtime.ArrV(e.Heap.NewPacked(0))
		}
	}
	return obj
}

// ClassByName resolves a linked class.
func (e *Env) ClassByName(name string) (*runtime.Class, bool) {
	c, ok := e.Classes[name]
	return c, ok
}

// InstanceOf implements `v instanceof cls`: one bit test against the
// object's ancestor set (classes, parents and interfaces alike). A
// class that is not linked has no instances.
func (e *Env) InstanceOf(v runtime.Value, cls string) bool {
	c, ok := e.ClassByName(cls)
	return ok && v.Kind == types.KObj && v.AsObj().Class.HasAncestorID(c.ClassID)
}

// FuncByName resolves a function in the unit.
func (e *Env) FuncByName(name string) (*hhbc.Func, bool) {
	return e.Unit.FuncByName(name)
}

// NewException creates a guest exception object of class (or
// Exception when cls is missing) carrying msg.
func (e *Env) NewException(clsName, msg string) *runtime.Object {
	cls, ok := e.Classes[clsName]
	if !ok {
		cls, ok = e.Classes["Exception"]
		if !ok {
			// No Exception class linked: synthesize a minimal one. Not
			// cached — the class table is shared across worker envs and
			// read lock-free, so it is immutable after linking.
			cls = &runtime.Class{
				Name:      "Exception",
				PropNames: map[string]int{"message": 0},
				PropInit:  []runtime.Value{runtime.StrV(runtime.InternStr(""))},
				Methods:   map[string]int{},
				ClassID:   -1,
			}
		}
	}
	obj := e.NewInstance(cls)
	if _, ok := cls.PropNames["message"]; ok {
		_ = obj.SetProp(e.Heap, "message", e.Heap.NewStr(msg))
	}
	return obj
}

// toThrownObject converts any guest error into a throwable object,
// turning runtime fatals into catchable Exception instances (PHP's
// error handler can likewise intercept runtime errors).
func (e *Env) toThrownObject(err error) *runtime.Object {
	if obj, ok := runtime.ThrownObject(err); ok {
		return obj
	}
	return e.NewException("Exception", err.Error())
}
