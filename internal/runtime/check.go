package runtime

import "repro/internal/types"

// Check is a guard compiled from a lattice type: whether a value
// satisfies the type, answered from the value's kind tag and at most
// one header word (a string's static bit, an array's layout, an
// object's class). The assembler compiles every guard of a translation
// once — its entry preconditions and its in-code guard instructions —
// so the machine, chaining and the dispatcher ask the same question the
// same way, and none of them builds a types.Type per value. Compile
// time keeps the lattice (SubtypeOf between types); only values meet a
// Check.
type Check struct {
	cls    *Class          // an object must be an instance of cls (nil: any object)
	kinds  types.Kind      // the kinds the type admits
	static bool            // a string must be static
	arr    types.ArrayKind // an array must have this layout (ArrayAny: either)
	exact  bool            // of cls itself, not a subclass
}

// NewCheck compiles t against the linked classes (an Env's Classes).
// A class refinement naming a class that is not linked admits no
// object: no instance of it, or of a subclass, can exist.
func NewCheck(t types.Type, classes map[string]*Class) Check {
	c := Check{kinds: t.Kind(), static: t.Static(), arr: t.ArrayKind()}
	if name, exact := t.Class(); t.Kind() == types.KObj && name != "" {
		c.cls, c.exact = classes[name], exact
		if c.cls == nil {
			c.kinds = 0
		}
	}
	return c
}

// Holds reports whether v satisfies the compiled type. The zero Value
// (no kind) satisfies no check: it stands for an eval-stack slot the
// frame does not have.
func (c *Check) Holds(v Value) bool {
	if v.Kind&c.kinds == 0 {
		return false
	}
	switch v.Kind {
	case types.KStr:
		return !c.static || v.AsStr().Static()
	case types.KArr:
		return c.arr == types.ArrayAny || (c.arr == types.ArrayPacked) == v.AsArr().IsPacked()
	case types.KObj:
		switch {
		case c.cls == nil:
			return true
		case c.exact:
			return v.AsObj().Class == c.cls
		default:
			return v.AsObj().Class.HasAncestorID(c.cls.ClassID)
		}
	}
	return true
}
