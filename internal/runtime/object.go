package runtime

import (
	"repro/internal/shapes"
	"repro/internal/types"
)

// Class is the runtime class descriptor. Method bodies live in the
// bytecode unit; the class refers to them by dense function IDs so
// that the runtime stays independent of the bytecode representation.
type Class struct {
	Name    string
	Parent  *Class
	Ifaces  []string
	HasDtor bool

	// PropNames maps property name -> slot index; PropInit holds the
	// default values (uncounted only).
	PropNames map[string]int
	PropInit  []Value

	// Methods maps lowercase method name -> function ID. It includes
	// inherited methods (flattened at link time).
	Methods map[string]int

	// ClassID is a dense ID used by JITed class-equality guards.
	ClassID int

	// RootShape is the interned shape of a freshly constructed
	// instance (declared properties in slot order with their
	// default-value kinds), set at link time. Classes with identical
	// flattened layouts share a root, which is what lets one shape
	// guard cover a class-polymorphic site. Nil for classes
	// synthesized outside linking; their instances run shapeless and
	// take only generic property paths.
	RootShape *shapes.Shape

	// AncestorBits is a bitset over dense class IDs covering this
	// class, every ancestor, and every implemented interface — the
	// "bitwise instanceof checks" optimization the paper lists among
	// the Vasm-level optimizations (Figure 7): `$x instanceof C`
	// compiles to a single bit test instead of a hierarchy walk.
	AncestorBits []uint64
}

// HasAncestorID reports whether id is in the ancestor bitset.
func (c *Class) HasAncestorID(id int) bool {
	w, b := id/64, uint(id%64)
	return w < len(c.AncestorBits) && c.AncestorBits[w]&(1<<b) != 0
}

// SetAncestorID adds id to the bitset.
func (c *Class) SetAncestorID(id int) {
	w, b := id/64, uint(id%64)
	for len(c.AncestorBits) <= w {
		c.AncestorBits = append(c.AncestorBits, 0)
	}
	c.AncestorBits[w] |= 1 << b
}

// LookupMethod resolves the case-insensitive method name to a function
// ID.
func (c *Class) LookupMethod(name string) (int, bool) {
	return LookupFold(c.Methods, name)
}

// IsSubclassOf walks the extends chain and interface lists.
func (c *Class) IsSubclassOf(name string) bool {
	for k := c; k != nil; k = k.Parent {
		if k.Name == name {
			return true
		}
		for _, i := range k.Ifaces {
			if i == name || types.IsSubclassOf(i, name) {
				return true
			}
		}
	}
	return false
}

// Object is a guest object instance: a class pointer, its current
// shape, and property slots. The invariant len(Props) ==
// Shape.NumSlots() holds whenever Shape is non-nil: dynamic
// properties append a slot to both in the same write. Objects are
// confined to one worker's requests, so Shape needs no
// synchronization — only the shape *nodes* are shared.
type Object struct {
	Class      *Class
	Shape      *shapes.Shape
	Props      []Value
	refs       int32
	destructed bool
}

// Refs returns the current reference count, 0 once freed.
func (o *Object) Refs() int32 { return liveRefs(o.refs) }

// ShapeID returns the object's shape ID, 0 when shapeless — compiled
// shape guards compare against it (0 never matches a minted guard).
func (o *Object) ShapeID() uint32 {
	if o.Shape == nil {
		return 0
	}
	return o.Shape.ID
}

// slotOf resolves a property name against the object's current layout
// (shape when present — which includes dynamic properties — else the
// class's declared slots).
func (o *Object) slotOf(name string) (int, bool) {
	if o.Shape != nil {
		return o.Shape.Lookup(name)
	}
	slot, ok := o.Class.PropNames[name]
	return slot, ok
}

// GetProp returns a borrowed reference to the named property.
func (o *Object) GetProp(name string) (Value, bool) {
	slot, ok := o.slotOf(name)
	if !ok {
		return Uninit(), false
	}
	return o.Props[slot], true
}

// SetProp stores val (consuming the caller's reference) and releases
// the previous value, maintaining the object's shape: a write whose
// kind differs from the slot's recorded kind retypes the slot, and a
// write to an undeclared name appends a dynamic property (shapeless
// objects keep the historical undefined-property error instead).
func (o *Object) SetProp(h *Heap, name string, val Value) error {
	if slot, ok := o.slotOf(name); ok {
		o.SetPropSlot(h, slot, val)
		return nil
	}
	if o.Shape == nil {
		return NewError("undefined property %s::$%s", o.Class.Name, name)
	}
	o.Shape = o.Shape.Transition(name, val.Kind)
	o.Props = append(o.Props, val)
	return nil
}

// GetPropSlot / SetPropSlot are the JIT fast paths once the slot index
// has been resolved (by a compile-time class layout or a shape guard).
func (o *Object) GetPropSlot(slot int) Value { return o.Props[slot] }

// SetPropSlot stores into a known slot, maintaining the typed shape.
// The kind check is one lock-free comparison on the hot path; the
// transition itself follows the shape tree's cached edges.
func (o *Object) SetPropSlot(h *Heap, slot int, val Value) {
	if o.Shape != nil && o.Shape.SlotKind(slot) != val.Kind {
		o.Shape = o.Shape.Transition(o.Shape.Slots[slot].Name, val.Kind)
	}
	old := o.Props[slot]
	o.Props[slot] = val
	h.DecRef(old)
}

// GetPropNamed is the generic property read `recv->name`, shared by
// the interpreter and the machine's generic helper / megamorphic IC
// fallback. recv is borrowed, the result is owned: missing and
// uninitialized properties read as null, as in PHP.
func GetPropNamed(h *Heap, recv Value, name string) (Value, error) {
	if recv.Kind != types.KObj {
		return Null(), NewError("property access on non-object")
	}
	p, _ := recv.AsObj().GetProp(name)
	if p.Kind == types.KUninit {
		p = Null()
	}
	h.IncRef(p)
	return p, nil
}

// SetPropNamed is the matching generic property write: recv is
// borrowed, val is consumed (also on error).
func SetPropNamed(h *Heap, recv Value, name string, val Value) error {
	if recv.Kind != types.KObj {
		h.DecRef(val)
		return NewError("property write on non-object")
	}
	if err := recv.AsObj().SetProp(h, name, val); err != nil {
		h.DecRef(val)
		return err
	}
	return nil
}

// InstanceOf implements `v instanceof cls` by class name.
func InstanceOf(v Value, cls string) bool {
	return v.Kind == types.KObj && v.AsObj().Class.IsSubclassOf(cls)
}
