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

// The accounting oracle: the classic dispatch path charges each
// instruction's cost and probes the fetch model before executing it;
// the fast path (PrepareDispatch) settles whole straight-line runs and
// probes only at line heads and transfers. Every hand-assembled unit
// below runs three ways — classic, prepared, and fused + prepared —
// and all three must agree on the meter and on every fetch-model
// counter, as well as on the guest-visible outcome.

const inv = vasm.InvalidReg

// account is everything the dispatch variants must agree on.
type account struct {
	Cycles, ICacheMisses, ITLBMisses, Fetches uint64

	Kind       machine.OutcomeKind
	BCOff      int
	GuardFails int
	Value      runtime.Value
	Stack      []runtime.Value
}

// variant is one way of getting a unit onto the machine.
type variant struct {
	name          string
	fuse, prepare bool
}

var variants = []variant{
	{name: "classic"},
	{name: "prepared", prepare: true},
	{name: "fused", fuse: true, prepare: true},
}

// exec assembles a fresh copy of the unit at base and runs it on a
// cold machine against a frame holding locals.
func exec(t *testing.T, v variant, build func() *vasm.Unit, base uint64, locals ...runtime.Value) (account, *mcode.Code, machine.Outcome) {
	t.Helper()
	u := build()
	if v.fuse {
		vasm.Fuse(u)
	}
	code, err := mcode.Assemble(u)
	if err != nil {
		t.Fatalf("%s: assemble: %v", v.name, err)
	}
	code.Place(base)
	if v.prepare {
		machine.PrepareDispatch(code)
	}
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

// agree runs every variant and fails unless all accounts are equal;
// it returns the common account and the fused variant's code.
func agree(t *testing.T, build func() *vasm.Unit, base uint64, locals ...runtime.Value) (account, *mcode.Code, machine.Outcome) {
	t.Helper()
	want, _, _ := exec(t, variants[0], build, base, locals...)
	var code *mcode.Code
	var out machine.Outcome
	for _, v := range variants[1:] {
		var got account
		got, code, out = exec(t, v, build, base, locals...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s dispatch diverged from classic:\n got %+v\nwant %+v", v.name, got, want)
		}
	}
	return want, code, out
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
// second component on the next, which the fast path must probe as a
// fetch tail.
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
	less, fused, _ := agree(t, build, 0x10000+44, runtime.Int(5), runtime.Int(6))
	more, _, _ := agree(t, build, 0x10000+44, runtime.Int(7), runtime.Int(6))
	if less.Kind != machine.Returned || less.Value != runtime.Int(1) || more.Value != runtime.Int(2) {
		t.Errorf("outcomes %+v and %+v, want Returned 1 and 2", less, more)
	}
	// LdLoc 3 + LdLoc 3 + CmpI 1 + Jcc 1 + Ret 10, two locals torn down
	// (4), two cold lines (20 each) on one cold page (30).
	if less.Cycles != 92 || more.Cycles != 92 || less.ICacheMisses != 2 || less.ITLBMisses != 1 {
		t.Errorf("%d and %d cycles, %d i-cache and %d I-TLB misses; want 92, 92, 2, 1",
			less.Cycles, more.Cycles, less.ICacheMisses, less.ITLBMisses)
	}
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
	got, code, _ := agree(t, build, 0x10000, runtime.Int(34), runtime.Null())
	if got.Kind != machine.Returned || got.Value != runtime.Int(42) {
		t.Errorf("outcome %+v, want Returned 42", got)
	}
	// LdLoc 3 + AddI 1 + StLoc 2 + LdLoc 3 + AddI 1 + Ret 10, two locals
	// torn down (4), one cold line and page (50).
	if got.Cycles != 74 {
		t.Errorf("%d cycles, want 74", got.Cycles)
	}
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
// next stream instruction (the fast path coalesces it into the
// running stretch) and whose false target is a taken transfer onto
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
	through, _, _ := agree(t, build, 0x10000+40, runtime.Bool(true))
	taken, _, _ := agree(t, build, 0x10000+40, runtime.Bool(false))
	if through.Value != runtime.Int(1) || taken.Value != runtime.Int(2) {
		t.Errorf("fall-through returned %v, taken returned %v; want 1 and 2", through.Value, taken.Value)
	}
	// Either way LdLoc 3 + Jcc 1 + LdImm 1 + Ret 10, one local (2), and
	// two cold lines on one cold page (70): the fall-through's Ret and
	// the taken branch's whole block sit on the second line.
	if through.Cycles != 87 || taken.Cycles != 87 || through.ICacheMisses != 2 || taken.ICacheMisses != 2 {
		t.Errorf("fall-through %d cycles / %d misses, taken %d / %d; want 87 / 2 both",
			through.Cycles, through.ICacheMisses, taken.Cycles, taken.ICacheMisses)
	}
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
	pass, _, _ := agree(t, build, 0x10000, runtime.Int(41))
	if pass.Kind != machine.Returned || pass.Value != runtime.Int(42) || pass.GuardFails != 0 {
		t.Errorf("passing guard: %+v, want Returned 42", pass)
	}
	fail, fused, _ := agree(t, build, 0x10000, runtime.Dbl(1.5))
	if fail.Kind != machine.SideExit || fail.BCOff != 7 || fail.GuardFails != 1 {
		t.Errorf("failing guard: %+v, want SideExit at bytecode 7 with one guard fail", fail)
	}
	if len(fail.Stack) != 1 || fail.Stack[0] != runtime.Dbl(1.5) {
		t.Errorf("exit stack %v, want the guarded value", fail.Stack)
	}
	// One cold line and page (50) under both. Passing: LdLoc 3 + guard 2
	// + LdImm 1 + AddI 1 + Ret 10 + one local (2). Failing: LdLoc 3 +
	// guard 2 + the fail penalty 14 + the exit stub 8.
	if pass.Cycles != 69 || fail.Cycles != 77 {
		t.Errorf("passing run %d cycles, failing run %d; want 69 and 77", pass.Cycles, fail.Cycles)
	}
	if fused.Instrs[0].Op != vasm.LdLocGK {
		t.Errorf("fused stream %v: want the guard fused into LdLocGK", fused.Instrs)
	}
}

// TestAccountingPanicMidRun: a translation that panics (a local slot
// past the frame) is contained as a fault, and the meter is settled
// through the faulting instruction — what the classic path charged
// before executing it.
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
	got, _, out := agree(t, build, 0x10000+30, runtime.Int(0))
	var tf *machine.TransFault
	if got.Kind != machine.Faulted || !errors.As(out.Err, &tf) {
		t.Fatalf("outcome %+v err %v, want a contained TransFault", got, out.Err)
	}
	// LdImm 1 + LdImm 1 + MulI 3 + the faulting LdLoc 3 on one cold
	// line and page (50); never the Ret.
	if got.Cycles != 58 {
		t.Errorf("%d cycles, want 58: settled through the faulting instruction and no further", got.Cycles)
	}
}
