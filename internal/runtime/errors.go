package runtime

import (
	"fmt"

	"repro/internal/types"
)

// Error is a runtime fatal, raised by primitive operations. The VM
// converts fatals into guest Exception objects at throw sites so user
// code can catch them, as PHP's error handler can. A thrown guest
// exception object travels as Thrown's error instead, which propagates
// through guest catch handlers; the two flavors mirror PHP's
// error-handling model the paper discusses.
type Error struct {
	Msg string
}

func (e *Error) Error() string { return e.Msg }

// NewError creates a runtime fatal.
func NewError(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// thrown is an exception object viewed as the error that carries it,
// so a throw allocates nothing.
type thrown Object

func (t *thrown) Error() string {
	obj := (*Object)(t)
	if v, ok := obj.GetProp("message"); ok {
		return fmt.Sprintf("uncaught %s: %s", obj.Class.Name, v.ToString())
	}
	return "uncaught " + obj.Class.Name
}

// Thrown wraps a guest exception object into an error. The error owns
// one reference to obj.
func Thrown(obj *Object) error { return (*thrown)(obj) }

// ThrownObject returns the exception object err carries when err is a
// guest throw; the reference it owned is the caller's from then on.
func ThrownObject(err error) (*Object, bool) {
	t, ok := err.(*thrown)
	return (*Object)(t), ok
}

// ThrowValue implements the throw statement's operand check: only
// objects can be thrown. It consumes v — the returned error owns the
// object's reference.
func ThrowValue(h *Heap, v Value) error {
	if v.Kind != types.KObj {
		h.DecRef(v)
		return NewError("can only throw objects")
	}
	return Thrown(v.AsObj())
}
