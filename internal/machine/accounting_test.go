package machine_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// The accounting tests: hand-assembled units whose full account —
// meter, fetch-model counters, outcome and exit stack — is pinned to
// what charging each unfused instruction's opCost and probing its
// start before running it gives. Every unit runs prepared and fused +
// prepared, and both must equal the pinned account: a fused instruction
// straddling an i-cache line, taken and fall-through branches, a
// side-exiting guard, and a mid-run panic. TestPreparedDispatch-
// MatchesPerInstruction checks the tables behind them on the site.

const inv = vasm.InvalidReg

// account is everything a run is pinned on.
type account struct {
	Cycles, ICacheMisses, ITLBMisses, Fetches uint64

	Kind       machine.OutcomeKind
	BCOff      int
	GuardFails int
	Value      runtime.Value
	Stack      []runtime.Value
}

// variant is one way of compiling a unit for the machine.
type variant struct {
	name string
	fuse bool
}

var variants = []variant{{name: "prepared"}, {name: "fused", fuse: true}}

// place assembles u, fused first when fuse is set, places it at base
// and prepares it for dispatch: how every hand-assembled unit gets
// onto the machine.
func place(t *testing.T, u *vasm.Unit, base uint64, fuse bool) *mcode.Code {
	t.Helper()
	if fuse {
		vasm.Fuse(u)
	}
	code, err := mcode.Assemble(u)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	code.Place(base)
	machine.PrepareDispatch(code)
	return code
}

// exec places a fresh copy of the unit at base and runs it on a cold
// machine against a frame holding locals.
func exec(t *testing.T, v variant, build func() *vasm.Unit, base uint64, locals ...runtime.Value) (account, *mcode.Code, machine.Outcome) {
	t.Helper()
	code := place(t, build(), base, v.fuse)
	env := &interp.Env{Unit: &hhbc.Unit{}, Heap: runtime.NewHeap()}
	meter := &machine.Meter{}
	m := machine.New(env, meter, nil, mcode.NewCache(0))
	fr := &interp.Frame{Fn: &hhbc.Func{ID: 1}, Locals: append([]runtime.Value(nil), locals...)}
	out := m.Exec(code, fr)
	return account{
		Cycles: meter.Cycles, ICacheMisses: m.Fetch.ICacheMisses,
		ITLBMisses: m.Fetch.ITLBMisses, Fetches: m.Fetch.Fetches,
		Kind: out.Kind, BCOff: out.BCOff, GuardFails: out.GuardFails,
		Value: out.Value, Stack: fr.Stack,
	}, code, out
}

// pinned runs every variant and fails unless each one's account is
// want; it returns the fused variant's code and outcome.
func pinned(t *testing.T, want account, build func() *vasm.Unit, base uint64, locals ...runtime.Value) (*mcode.Code, machine.Outcome) {
	t.Helper()
	var code *mcode.Code
	var out machine.Outcome
	for _, v := range variants {
		var got account
		got, code, out = exec(t, v, build, base, locals...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s dispatch of locals %v:\n got %+v\nwant %+v", v.name, locals, got, want)
		}
	}
	return code, out
}

// returned is the account of a run that returned v.
func returned(cycles, icacheMisses, itlbMisses, fetches uint64, v runtime.Value) account {
	return account{Cycles: cycles, ICacheMisses: icacheMisses, ITLBMisses: itlbMisses, Fetches: fetches,
		Kind: machine.Returned, Value: v}
}

func ints(vals ...int64) []vasm.ImmValue {
	out := make([]vasm.ImmValue, len(vals))
	for i, v := range vals {
		out[i] = vasm.ImmValue{Kind: types.KInt, I: v}
	}
	return out
}

// TestAccountingComponentsStraddleLine: local0 < local1. Placed 44
// bytes into a line, the two loads end at +60 and the CmpI's Jcc starts
// at +65 — so the fused CmpIJcc begins on one i-cache line and its
// second component on the next, which dispatch must probe as a fetch
// tail.
func TestAccountingComponentsStraddleLine(t *testing.T) {
	build := func() *vasm.Unit {
		return &vasm.Unit{Imms: ints(1, 2), Blocks: []*vasm.Block{
			{ID: 0, Instrs: []vasm.Instr{
				{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0},
				{Op: vasm.LdLoc, D: 2, A: inv, B: inv, I64: 1},
				{Op: vasm.CmpI, D: 3, A: 1, B: 2, I64: 0},
				{Op: vasm.Jcc, D: inv, A: 3, B: inv, Target1: 1, Target2: 2},
			}},
			{ID: 1, Instrs: []vasm.Instr{{Op: vasm.Ret, D: inv, A: vasm.ImmReg(0), B: inv}}},
			{ID: 2, Instrs: []vasm.Instr{{Op: vasm.Ret, D: inv, A: vasm.ImmReg(1), B: inv}}},
		}}
	}
	// LdLoc 3 + LdLoc 3 + CmpI 1 + Jcc 1 + Ret 10, two locals torn down
	// (4), two cold lines (20 each) on one cold page (30).
	fused, _ := pinned(t, returned(92, 2, 1, 2, runtime.Int(1)), build, 0x10000+44, runtime.Int(5), runtime.Int(6))
	pinned(t, returned(92, 2, 1, 2, runtime.Int(2)), build, 0x10000+44, runtime.Int(7), runtime.Int(6))
	if fused.Instrs[2].Op != vasm.CmpIJcc || fused.DispatchFlags[2]&mcode.FlagFetchTails == 0 {
		t.Errorf("fused stream %v flags %v: want a CmpIJcc carrying a fetch tail at index 2",
			fused.Instrs, fused.DispatchFlags)
	}
}

// TestAccountingImmediates: $l = 3; return $x + 5 + $l, its constants
// carried by the add and the store. An immediate costs what the
// register form costs and lengthens the encoding (mcode's immSize):
// the add 5 -> 7 bytes, the store of an immediate cell 8 -> 12, a
// return of one 8 -> 12.
func TestAccountingImmediates(t *testing.T) {
	build := func() *vasm.Unit {
		return &vasm.Unit{Imms: ints(5, 3), Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
			{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0},
			{Op: vasm.AddI, D: 2, A: 1, B: vasm.ImmReg(0)},
			{Op: vasm.StLoc, D: inv, A: vasm.ImmReg(1), B: inv, I64: 1},
			{Op: vasm.LdLoc, D: 3, A: inv, B: inv, I64: 1},
			{Op: vasm.AddI, D: 4, A: 3, B: 2},
			{Op: vasm.Ret, D: inv, A: 4, B: inv},
		}}}}
	}
	// LdLoc 3 + AddI 1 + StLoc 2 + LdLoc 3 + AddI 1 + Ret 10, two locals
	// torn down (4), one cold line and page (50).
	code, _ := pinned(t, returned(74, 1, 1, 1, runtime.Int(42)), build, 0x10000, runtime.Int(34), runtime.Null())
	if want := []int32{0, 8, 15, 27, 35, 40}; code.Size != 48 || !reflect.DeepEqual(code.Addr, want) {
		t.Errorf("addresses %v, %d bytes; want %v, 48", code.Addr, code.Size, want)
	}
	ret, err := mcode.Assemble(&vasm.Unit{Imms: ints(7), Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		{Op: vasm.Ret, D: inv, A: vasm.ImmReg(0), B: inv},
	}}}})
	if err != nil || ret.Size != 12 {
		t.Errorf("a return of an immediate assembles to %v bytes (%v), want 12", ret, err)
	}
}

// TestAccountingJcc: a conditional branch whose true target is the
// next stream instruction (dispatch coalesces it into the running
// stretch) and whose false target is a taken transfer onto
// another line (settle, then probe).
func TestAccountingJcc(t *testing.T) {
	build := func() *vasm.Unit {
		return &vasm.Unit{Imms: ints(1, 2), Blocks: []*vasm.Block{
			{ID: 0, Instrs: []vasm.Instr{
				{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0},
				{Op: vasm.Jcc, D: inv, A: 1, B: inv, Target1: 1, Target2: 2},
			}},
			{ID: 1, Instrs: []vasm.Instr{
				{Op: vasm.LdImm, D: 2, A: inv, B: inv, I64: 0},
				{Op: vasm.Ret, D: inv, A: 2, B: inv},
			}},
			{ID: 2, Instrs: []vasm.Instr{
				{Op: vasm.LdImm, D: 2, A: inv, B: inv, I64: 1},
				{Op: vasm.Ret, D: inv, A: 2, B: inv},
			}},
		}}
	}
	// Either way LdLoc 3 + Jcc 1 + LdImm 1 + Ret 10, one local (2), and
	// two cold lines on one cold page (70): the fall-through's Ret and
	// the taken branch's whole block sit on the second line.
	pinned(t, returned(87, 2, 1, 2, runtime.Int(1)), build, 0x10000+40, runtime.Bool(true))
	pinned(t, returned(87, 2, 1, 2, runtime.Int(2)), build, 0x10000+40, runtime.Bool(false))
}

// TestAccountingGuardSideExit: a failing type guard leaves through
// its exit stub — the run settles through the guard, the failure
// penalty and the stub are charged, and the frame is synced.
func TestAccountingGuardSideExit(t *testing.T) {
	build := func() *vasm.Unit {
		return &vasm.Unit{Imms: ints(1), GuardTypes: []types.Type{types.TInt}, Blocks: []*vasm.Block{
			{ID: 0, Instrs: []vasm.Instr{
				{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0},
				{Op: vasm.GuardKind, D: inv, A: 1, B: inv, Target1: 1, Target2: 0},
				{Op: vasm.LdImm, D: 2, A: inv, B: inv, I64: 0},
				{Op: vasm.AddI, D: 3, A: 1, B: 2},
				{Op: vasm.Ret, D: inv, A: 3, B: inv},
			}},
			{ID: 1, Hint: vasm.HintStub, Instrs: []vasm.Instr{
				{Op: vasm.Exit, D: inv, A: inv, B: inv, Ex: &vasm.ExitInfo{BCOff: 7, StackRegs: []vasm.Reg{1}}},
			}},
		}}
	}
	// One cold line and page (50) under both. Passing: LdLoc 3 + guard 2
	// + LdImm 1 + AddI 1 + Ret 10 + one local (2). Failing: LdLoc 3 +
	// guard 2 + the fail penalty 14 + the exit stub 8, leaving at
	// bytecode 7 with the guarded value on the stack.
	pinned(t, returned(69, 1, 1, 1, runtime.Int(42)), build, 0x10000, runtime.Int(41))
	fused, _ := pinned(t, account{Cycles: 77, ICacheMisses: 1, ITLBMisses: 1, Fetches: 1,
		Kind: machine.SideExit, BCOff: 7, GuardFails: 1, Stack: []runtime.Value{runtime.Dbl(1.5)}},
		build, 0x10000, runtime.Dbl(1.5))
	if fused.Instrs[0].Op != vasm.LdLocGK {
		t.Errorf("fused stream %v: want the guard fused into LdLocGK", fused.Instrs)
	}
}

// TestAccountingPanicMidRun: a translation that panics (a local slot
// past the frame) is contained as a fault, and the meter is settled
// through the faulting instruction: it was dispatched, so it is
// charged.
func TestAccountingPanicMidRun(t *testing.T) {
	build := func() *vasm.Unit {
		return &vasm.Unit{Imms: ints(3, 4), Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
			{Op: vasm.LdImm, D: 1, A: inv, B: inv, I64: 0},
			{Op: vasm.LdImm, D: 2, A: inv, B: inv, I64: 1},
			{Op: vasm.MulI, D: 3, A: 1, B: 2},
			{Op: vasm.LdLoc, D: 4, A: inv, B: inv, I64: 99},
			{Op: vasm.Ret, D: inv, A: 3, B: inv},
		}}}}
	}
	// LdImm 1 + LdImm 1 + MulI 3 + the faulting LdLoc 3 on one cold
	// line and page (50): settled through the faulting instruction, never
	// the Ret.
	_, out := pinned(t, account{Cycles: 58, ICacheMisses: 1, ITLBMisses: 1, Fetches: 1, Kind: machine.Faulted},
		build, 0x10000+30, runtime.Int(0))
	var tf *machine.TransFault
	if !errors.As(out.Err, &tf) {
		t.Errorf("outcome %+v err %v, want a contained TransFault", out, out.Err)
	}
}

// TestExecRefusesUnpreparedCode: code that PrepareDispatch has not
// seen would run with no static cost and no fetch; Exec faults it
// instead, before running any instruction.
func TestExecRefusesUnpreparedCode(t *testing.T) {
	code, err := mcode.Assemble(&vasm.Unit{Imms: ints(1), Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		{Op: vasm.StLoc, D: inv, A: vasm.ImmReg(0), B: inv, I64: 0},
		{Op: vasm.Ret, D: inv, A: vasm.ImmReg(0), B: inv},
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	code.Place(0x10000)
	env := &interp.Env{Unit: &hhbc.Unit{}, Heap: runtime.NewHeap()}
	m := machine.New(env, &machine.Meter{}, nil, mcode.NewCache(0))
	fr := &interp.Frame{Fn: &hhbc.Func{ID: 1}, PC: 3, Locals: []runtime.Value{runtime.Null()}}
	out := m.Exec(code, fr)
	var tf *machine.TransFault
	if out.Kind != machine.Faulted || !errors.As(out.Err, &tf) || out.BCOff != 3 {
		t.Errorf("unprepared code: outcome %+v, want a TransFault at the entry pc 3", out)
	}
	if fr.Locals[0] != runtime.Null() || m.Meter.Cycles != 0 || m.Fetch.Fetches != 0 {
		t.Errorf("unprepared code ran: local %v, %d cycles, %d fetches", fr.Locals[0], m.Meter.Cycles, m.Fetch.Fetches)
	}
	machine.PrepareDispatch(code)
	if out := m.Exec(code, fr); out.Kind != machine.Returned || out.Value != runtime.Int(1) || m.Meter.Cycles == 0 {
		t.Errorf("prepared code: outcome %+v after %d cycles, want Returned 1 at a cost", out, m.Meter.Cycles)
	}
}
