package vasm_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/perflab"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

const none = vasm.InvalidReg

// ins builds an instruction whose absent fields are absent, not zero:
// D, A, B in that order, then whatever set adjusts.
func ins(op vasm.Op, d, a, b vasm.Reg, set ...func(*vasm.Instr)) vasm.Instr {
	in := vasm.Instr{Op: op, D: d, A: a, B: b, Target1: -1, Target2: -1}
	for _, f := range set {
		f(&in)
	}
	return in
}

func i64(v int64) func(*vasm.Instr)        { return func(in *vasm.Instr) { in.I64 = v } }
func to(b int) func(*vasm.Instr)           { return func(in *vasm.Instr) { in.Target1 = b } }
func to2(a, b int) func(*vasm.Instr)       { return func(in *vasm.Instr) { in.Target1, in.Target2 = a, b } }
func args(r ...vasm.Reg) func(*vasm.Instr) { return func(in *vasm.Instr) { in.Args = r } }

// exitStub is a frozen-area block whose Exit materializes regs.
func exitStub(id, bcOff int, regs ...vasm.Reg) *vasm.Block {
	return &vasm.Block{ID: id, Hint: vasm.HintStub, Instrs: []vasm.Instr{
		ins(vasm.Exit, none, none, none, func(in *vasm.Instr) {
			in.Ex = &vasm.ExitInfo{BCOff: bcOff, StackRegs: regs}
		}),
	}}
}

// allocate lays out and allocates u, checking the result against a
// clone of what went in.
func allocate(t *testing.T, u *vasm.Unit) {
	t.Helper()
	vasm.Layout(u, vasm.DefaultLayout)
	before := u.Clone()
	vasm.Allocate(u)
	if err := vasm.VerifyAllocation(before, u); err != nil {
		t.Fatalf("%v\nbefore:\n%safter:\n%s", err, before, u)
	}
}

// run assembles an allocated unit and executes it on a fresh machine.
func run(t *testing.T, u *vasm.Unit, locals ...runtime.Value) (machine.Outcome, *interp.Frame) {
	t.Helper()
	code, err := mcode.Assemble(u)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, u)
	}
	code.Place(0x10000)
	env := &interp.Env{Unit: &hhbc.Unit{}, Heap: runtime.NewHeap()}
	m := machine.New(env, &machine.Meter{}, nil, mcode.NewCache(0))
	fr := &interp.Frame{Fn: &hhbc.Func{ID: 1}, Locals: locals}
	return m.Exec(code, fr), fr
}

// TestForEachTargetGoesByField: whatever the opcode, a set Target1 is
// an edge — so liveness, layout and the assembler cannot disagree about
// an op with a catch stub, and a new one is covered the day it is added.
func TestForEachTargetGoesByField(t *testing.T) {
	tables := []vasm.JumpTable{{Targets: []int{4, 5}, Default: 6}}
	for op := vasm.Op(0); int(op) < vasm.OpCount; op++ {
		in := ins(op, none, none, none, to(3))
		var got []int
		in.ForEachTarget(tables, func(b int) { got = append(got, b) })
		want := []int{3}
		switch op {
		case vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc:
			want = []int{3, -1}
		case vasm.JmpTable:
			want = []int{3, 4, 5, 6}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s with Target1=3: edges %v, want %v", op, got, want)
		}
		in.Target1 = -1
		n := 0
		in.ForEachTarget(nil, func(int) { n++ })
		if jcc := op == vasm.Jcc || op == vasm.CmpIJcc || op == vasm.CmpDJcc; n != 0 && !jcc {
			t.Errorf("%s without a target reports %d edges", op, n)
		}
	}
}

// TestFarExitStubLeavesAHole: a value only a guard's exit stub reads is
// live at the guard and in the stub at the end of the layout, not in
// between — twelve values live at once after the guard all get
// registers. One [first, last] interval per vreg made that thirteen.
func TestFarExitStubLeavesAHole(t *testing.T) {
	b0 := &vasm.Block{ID: 0}
	emit := func(in vasm.Instr) { b0.Instrs = append(b0.Instrs, in) }
	emit(ins(vasm.LdLoc, 0, none, none, i64(0)))
	emit(ins(vasm.GuardKind, none, 0, none, to(1), func(in *vasm.Instr) { in.TypeParam = types.TInt }))
	for v := vasm.Reg(1); v <= 12; v++ {
		emit(ins(vasm.LdLoc, v, none, none, i64(int64(v))))
	}
	sum := vasm.Reg(1)
	for v := vasm.Reg(2); v <= 12; v++ {
		emit(ins(vasm.AddI, 20+v, sum, v))
		sum = 20 + v
	}
	emit(ins(vasm.Ret, none, sum, none))
	u := &vasm.Unit{Blocks: []*vasm.Block{b0, exitStub(1, 9, 0)}}
	allocate(t, u)
	if u.Alloc.Spilled != 0 || u.Alloc.MaxPressure != 12 {
		t.Fatalf("%s; want no spills at pressure 12\n%s", u.Alloc, u)
	}
	shared := false
	for v := 1; v <= 12; v++ {
		shared = shared || u.RegOf[v] == u.RegOf[0]
	}
	if !shared {
		t.Errorf("nothing reuses r%d while the guarded value is not live", u.RegOf[0])
	}

	locals := make([]runtime.Value, 13)
	for i := range locals {
		locals[i] = runtime.Int(int64(i))
	}
	if out, _ := run(t, u, locals...); out.Kind != machine.Returned || out.Value != runtime.Int(78) {
		t.Errorf("guard passes: %+v, want Returned 78", out)
	}
	locals[0] = runtime.StrV(runtime.InternStr("s"))
	out, fr := run(t, u, locals...)
	if out.Kind != machine.SideExit || out.BCOff != 9 || len(fr.Stack) != 1 || fr.Stack[0] != locals[0] {
		t.Errorf("guard fails: %+v stack %v, want a side exit to 9 carrying the guarded value", out, fr.Stack)
	}
}

// TestCopyOfDyingValueIsDeleted: the copy's destination takes the
// source's register and the copy goes.
func TestCopyOfDyingValueIsDeleted(t *testing.T) {
	u := &vasm.Unit{Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		ins(vasm.LdLoc, 0, none, none, i64(0)),
		ins(vasm.Copy, 1, 0, none),
		ins(vasm.Ret, none, 1, none),
	}}}}
	allocate(t, u)
	if got := ops(u); !eqOps(got, []vasm.Op{vasm.LdLoc, vasm.Ret}) || u.Alloc.CopiesCoalesced != 1 {
		t.Fatalf("got %v, %s; want the copy coalesced away", got, u.Alloc)
	}
	if out, _ := run(t, u, runtime.Int(7)); out.Value != runtime.Int(7) {
		t.Errorf("returned %v, want 7", out.Value)
	}
}

// TestLoopCarriedValueKeepsItsRegister: the parameter of a loop header
// and the value copied into it on the back edge share a register, so
// the loop runs without the copy.
func TestLoopCarriedValueKeepsItsRegister(t *testing.T) {
	const (
		i, next, one, limit, cond = 1, 2, 3, 4, 5
	)
	u := &vasm.Unit{Imms: []vasm.ImmValue{{Kind: types.KInt, I: 0}, {Kind: types.KInt, I: 1}, {Kind: types.KInt, I: 10}},
		Blocks: []*vasm.Block{
			{ID: 0, Weight: 1, Instrs: []vasm.Instr{
				ins(vasm.LdImm, 0, none, none, i64(0)),
				ins(vasm.Copy, i, 0, none),
				ins(vasm.Jmp, none, none, none, to(1)),
			}},
			{ID: 1, Weight: 10, Instrs: []vasm.Instr{
				ins(vasm.LdImm, one, none, none, i64(1)),
				ins(vasm.AddI, next, i, one),
				ins(vasm.LdImm, limit, none, none, i64(2)),
				ins(vasm.CmpI, cond, next, limit, i64(0)), // next < 10
				ins(vasm.Copy, i, next, none),
				ins(vasm.Jcc, none, cond, none, to2(1, 2)),
			}},
			{ID: 2, Weight: 1, Instrs: []vasm.Instr{ins(vasm.Ret, none, i, none)}},
		}}
	allocate(t, u)
	if u.RegOf[i] != u.RegOf[next] || u.Alloc.CopiesCoalesced != 2 {
		t.Fatalf("header param in r%d, back-edge value in r%d, %s; want one register and both copies gone\n%s",
			u.RegOf[i], u.RegOf[next], u.Alloc, u)
	}
	if out, _ := run(t, u); out.Kind != machine.Returned || out.Value != runtime.Int(10) {
		t.Errorf("loop returned %+v, want 10", out)
	}
}

// TestCatchStubValueSurvivesTheThrow: a value nothing but the catch
// stub reads must still be in its register when the instruction throws.
// DivD is the op the allocator's own edge list used to leave out.
func TestCatchStubValueSurvivesTheThrow(t *testing.T) {
	u := &vasm.Unit{Blocks: []*vasm.Block{
		{ID: 0, Instrs: []vasm.Instr{
			ins(vasm.LdLoc, 0, none, none, i64(0)), // read by the stub only
			ins(vasm.LdLoc, 1, none, none, i64(1)),
			ins(vasm.LdLoc, 2, none, none, i64(2)),
			ins(vasm.DivD, 3, 1, 2, to(1)),
			ins(vasm.Ret, none, 3, none),
		}},
		exitStub(1, 5, 0),
	}}
	allocate(t, u)
	if u.RegOf[0] == u.RegOf[1] || u.RegOf[0] == u.RegOf[2] {
		t.Fatalf("the stub's value shares r%d with an operand loaded after it\n%s", u.RegOf[0], u)
	}
	keep := runtime.Int(99)
	if out, _ := run(t, u, keep, runtime.Dbl(1), runtime.Dbl(4)); out.Value != runtime.Dbl(0.25) {
		t.Errorf("1/4 returned %v", out.Value)
	}
	out, fr := run(t, u, keep, runtime.Dbl(1), runtime.Dbl(0))
	if out.Kind != machine.Threw || out.BCOff != 5 || len(fr.Stack) != 1 || fr.Stack[0] != keep {
		t.Errorf("1/0: %+v stack %v, want a throw to 5 carrying %v", out, fr.Stack, keep)
	}
}

// TestDeadDefGetsARegisterOfItsOwn: a result nobody reads still lands
// somewhere, and not on a live value.
func TestDeadDefGetsARegisterOfItsOwn(t *testing.T) {
	u := &vasm.Unit{Imms: []vasm.ImmValue{{Kind: types.KInt, I: 5}}, Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		ins(vasm.LdLoc, 0, none, none, i64(0)),
		ins(vasm.LdImm, 1, none, none, i64(0)), // dead
		ins(vasm.Ret, none, 0, none),
	}}}}
	allocate(t, u)
	if dead := u.RegOf[1]; dead < 0 || dead >= vasm.NumPhysRegs || dead == u.RegOf[0] {
		t.Fatalf("dead def in r%d, live value in r%d", dead, u.RegOf[0])
	}
	if out, _ := run(t, u, runtime.Int(3)); out.Value != runtime.Int(3) {
		t.Errorf("returned %v, want 3", out.Value)
	}
}

// TestUndefinedVRegFailsToAssemble: a register read before anything
// writes it gets no location, and the unit does not assemble — the JIT
// treats that like any failed compile and the function stays where it
// was. It used to be parked in r0, on top of whatever lived there.
func TestUndefinedVRegFailsToAssemble(t *testing.T) {
	u := &vasm.Unit{Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		ins(vasm.LdLoc, 0, none, none, i64(0)),
		ins(vasm.AddI, 1, 0, 7), // r7 is never defined
		ins(vasm.Ret, none, 1, none),
	}}}}
	allocate(t, u)
	if u.RegOf[7] != vasm.InvalidReg {
		t.Fatalf("undefined r7 was given location %d", u.RegOf[7])
	}
	_, err := mcode.Assemble(u)
	var ae *mcode.AssembleError
	if !errors.As(err, &ae) || ae.Op != vasm.AddI {
		t.Fatalf("Assemble = %v, want an *AssembleError at the AddI", err)
	}
}

// spillUnit keeps twenty values live across a call that takes all of
// them and a guard whose exit stub materializes all of them, then sums
// them: twelve registers cannot hold that, so arguments, exit-stack
// entries and ALU operands all come from spill slots.
func spillUnit() *vasm.Unit {
	const n = 20
	u := &vasm.Unit{}
	b0 := &vasm.Block{ID: 0}
	emit := func(in vasm.Instr) { b0.Instrs = append(b0.Instrs, in) }
	var vals []vasm.Reg
	for v := vasm.Reg(0); v < n; v++ {
		u.Imms = append(u.Imms, vasm.ImmValue{Kind: types.KInt, I: int64(v) + 1})
		emit(ins(vasm.LdImm, v, none, none, i64(int64(v))))
		vals = append(vals, v)
	}
	emit(ins(vasm.LdLoc, 30, none, none, i64(0)))
	emit(ins(vasm.GuardKind, none, 30, none, to(1), func(in *vasm.Instr) { in.TypeParam = types.TInt }))
	emit(ins(vasm.CallBuiltin, 31, none, none, args(slices.Clone(vals)...), func(in *vasm.Instr) { in.Str = "max" }))
	sum := vasm.Reg(31)
	for v := vasm.Reg(0); v < n; v++ {
		emit(ins(vasm.AddI, 40+v, sum, v))
		sum = 40 + v
	}
	emit(ins(vasm.Ret, none, sum, none))
	u.Blocks = []*vasm.Block{b0, exitStub(1, 3, slices.Clone(vals)...)}
	return u
}

// TestForcedSpill: the one fallback still compiles, verifies and
// computes the right answer on both paths.
func TestForcedSpill(t *testing.T) {
	u := spillUnit()
	allocate(t, u)
	if u.Alloc.MaxPressure < 20 || u.Alloc.Spilled < 8 || u.NumSpills != u.Alloc.Spilled {
		t.Fatalf("%s, %d slots; want at least 8 of 20 live values spilled", u.Alloc, u.NumSpills)
	}
	spilledArgs, spilledStack := 0, 0
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Args {
				if r >= vasm.SpillRegBase {
					spilledArgs++
				}
			}
			if in.Op == vasm.Exit {
				for _, r := range in.Ex.StackRegs {
					if r >= vasm.SpillRegBase {
						spilledStack++
					}
				}
			}
		}
	}
	if spilledArgs < 6 || spilledStack < 6 {
		t.Fatalf("%d call arguments and %d exit-stack entries come from spill slots, want at least 6 each", spilledArgs, spilledStack)
	}

	// max(1..20) + sum(1..20)
	if out, _ := run(t, u, runtime.Int(0)); out.Kind != machine.Returned || out.Value != runtime.Int(230) {
		t.Errorf("guard passes: %+v, want Returned 230", out)
	}
	out, fr := run(t, u, runtime.Null())
	if out.Kind != machine.SideExit || len(fr.Stack) != 20 {
		t.Fatalf("guard fails: %+v with %d stack values, want a side exit carrying 20", out, len(fr.Stack))
	}
	for i, v := range fr.Stack {
		if v != runtime.Int(int64(i)+1) {
			t.Errorf("exit stack[%d] = %v, want %d", i, v, i+1)
		}
	}
}

// TestVerifyAllocationCatchesBadAllocations: the verifier is only worth
// running if it fails when the allocation is wrong.
func TestVerifyAllocationCatchesBadAllocations(t *testing.T) {
	fresh := func() (before, after *vasm.Unit) {
		after = spillUnit()
		vasm.Layout(after, vasm.DefaultLayout)
		before = after.Clone()
		vasm.Allocate(after)
		if err := vasm.VerifyAllocation(before, after); err != nil {
			t.Fatal(err)
		}
		return before, after
	}
	cases := []struct {
		name, want string
		corrupt    func(after *vasm.Unit)
	}{
		{"two live values in one register", "both live", func(u *vasm.Unit) {
			var phys []int
			for v := 0; v < 20; v++ {
				if u.RegOf[v] < vasm.NumPhysRegs {
					phys = append(phys, v)
				}
			}
			u.RegOf[phys[0]] = u.RegOf[phys[1]]
		}},
		{"live value without a location", "no valid location", func(u *vasm.Unit) { u.RegOf[0] = vasm.InvalidReg }},
		{"operand rewritten to the wrong register", "rewritten as", func(u *vasm.Unit) {
			ret := &u.Blocks[0].Instrs[len(u.Blocks[0].Instrs)-1]
			ret.A = (ret.A + 1) % vasm.NumPhysRegs
		}},
		{"exit stack entry rewritten wrongly", "exit stack", func(u *vasm.Unit) { u.Blocks[1].Instrs[0].Ex.StackRegs[3]++ }},
		{"call argument rewritten wrongly", "args", func(u *vasm.Unit) {
			for i := range u.Blocks[0].Instrs {
				if in := &u.Blocks[0].Instrs[i]; in.Op == vasm.CallBuiltin {
					in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				}
			}
		}},
		{"instruction dropped", "", func(u *vasm.Unit) { u.Blocks[0].Instrs = u.Blocks[0].Instrs[1:] }},
	}
	for _, tc := range cases {
		before, after := fresh()
		tc.corrupt(after)
		if err := vasm.VerifyAllocation(before, after); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: VerifyAllocation = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// siteUnits warms an engine over workload.Combined() once and returns
// every unit the JIT sent into register allocation on the way (live,
// profiling and optimized translations, as laid out), plus a function
// that builds the HHIR of each region translation afresh (from its
// descriptor, without inlining) as input for Optimize and Lower.
func siteUnits(b *testing.B) (laidOut []*vasm.Unit, build func() []*hhir.Unit) {
	b.Helper()
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	j := eng.VM.JIT
	j.SetAllocationCheck(func(_ *hhir.Unit, before, _ *vasm.Unit) { laidOut = append(laidOut, before) })
	for i := 0; i < 40; i++ {
		for _, ep := range eps {
			if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
	if !j.Optimized() {
		b.Fatal("warm-up did not reach the optimized tier")
	}
	bcfg := hhir.BuildConfig{EnableMethodDispatch: true, EnableShapes: true, Counters: j.Counters}
	return laidOut, func() (built []*hhir.Unit) {
		j.ForEachTranslation(func(tr *jit.Translation) {
			if tr.Kind != jit.ModeRegion {
				return
			}
			hu, err := hhir.Build(j.Unit, j.Env, tr.Desc, bcfg)
			if err != nil {
				b.Fatal(err)
			}
			built = append(built, hu)
		})
		return built
	}
}

// BenchmarkAllocate localizes vasm.regalloc_ms and the allocator's
// share of coldstart_site req_allocs: one op allocates every unit the
// site compiles on its way to steady state.
func BenchmarkAllocate(b *testing.B) {
	laidOut, _ := siteUnits(b)
	b.Logf("%d units", len(laidOut))
	b.ReportAllocs()
	b.ResetTimer()
	fresh := make([]*vasm.Unit, len(laidOut))
	for i := 0; i < b.N; i++ {
		b.StopTimer() // Allocate rewrites its unit in place
		for ui, u := range laidOut {
			fresh[ui] = u.Clone()
		}
		b.StartTimer()
		for _, u := range fresh {
			vasm.Allocate(u)
		}
	}
}

// BenchmarkLower localizes vasm.lower_ms: one op lowers the optimized
// HHIR of every region translation of the site.
func BenchmarkLower(b *testing.B) {
	_, build := siteUnits(b)
	optimized := build()
	for _, hu := range optimized {
		hhir.Optimize(hu, hhir.AllPasses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hu := range optimized {
			if _, err := vasm.Lower(hu); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimize localizes hhir.optimize_ms and the optimizer's
// share of coldstart_site req_allocs: one op runs the optimized
// pipeline over the HHIR of every region translation of the site.
func BenchmarkOptimize(b *testing.B) {
	_, build := siteUnits(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // Optimize rewrites its unit in place
		built := build()
		b.StartTimer()
		for _, hu := range built {
			hhir.Optimize(hu, hhir.AllPasses)
		}
	}
}
