package machine_test

import (
	"io"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/vasm"
)

// TestNewObjByClassID: a `new` whose class was linked when the code was
// assembled makes its object from the ClassID the instruction carries;
// one whose class was not keeps the by-name path and raises the
// interpreter's error.
func TestNewObjByClassID(t *testing.T) {
	unit := &hhbc.Unit{Classes: []*hhbc.ClassDef{{Name: "Base"}, {Name: "Box", Parent: "Base"}}}
	env, err := interp.NewEnv(unit, runtime.NewHeap(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Box", "Nope"} {
		code := assemble(t, &vasm.Unit{Classes: env.Classes, Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
			{Op: vasm.Helper, D: 1, A: inv, B: inv, I64: vasm.PackHelper(vasm.HNewObj, 0), Str: name, Target1: -1},
			{Op: vasm.Ret, D: inv, A: 1, B: inv, Target1: -1},
		}}}})
		m := machine.New(env, &machine.Meter{}, nil, mcode.NewCache(0))
		out := m.Exec(code, &interp.Frame{Fn: &hhbc.Func{}})
		switch name {
		case "Box":
			if _, extra := vasm.UnpackHelper(code.Instrs[0].I64); extra != int64(env.Classes["Box"].ClassID) {
				t.Errorf("new Box carries class %d, want Box's ID %d", extra, env.Classes["Box"].ClassID)
			}
			if out.Kind != machine.Returned || out.Value.AsObj().Class != env.Classes["Box"] {
				t.Errorf("new Box: outcome %+v, want a Box", out)
			}
		default:
			if out.Kind != machine.Threw || out.Err == nil || out.Err.Error() != "class Nope not found" {
				t.Errorf("new Nope: outcome %+v, want the interpreter's class-not-found error", out)
			}
		}
	}
}
