package runtime

import (
	"fmt"

	"repro/internal/types"
)

// Error is a guest-level error. Two flavors exist, mirroring PHP's
// error-handling model the paper discusses:
//
//   - a thrown guest exception object (Obj set), which propagates
//     through guest catch handlers;
//   - a runtime fatal (Obj nil), raised by primitive operations. The
//     VM converts fatals into guest Exception objects at throw sites
//     so user code can catch them, as PHP's error handler can.
type Error struct {
	Msg string
	Obj *Object
}

func (e *Error) Error() string {
	if e.Obj != nil {
		if v, ok := e.Obj.GetProp("message"); ok {
			return fmt.Sprintf("uncaught %s: %s", e.Obj.Class.Name, v.ToString())
		}
		return "uncaught " + e.Obj.Class.Name
	}
	return e.Msg
}

// NewError creates a runtime fatal.
func NewError(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// Thrown wraps a guest exception object into an error. The error owns
// one reference to obj.
func Thrown(obj *Object) *Error { return &Error{Obj: obj} }

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
