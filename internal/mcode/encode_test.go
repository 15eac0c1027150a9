package mcode_test

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/mcode"
	"repro/internal/perflab"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// TestInstrIsCompactAndPointerFree: the executable instruction is at
// most 32 bytes, and neither it nor the exit descriptors and inline
// frames the machine reads next to it holds anything the GC would
// have to scan.
func TestInstrIsCompactAndPointerFree(t *testing.T) {
	size := unsafe.Sizeof(mcode.Instr{})
	t.Logf("executable instruction: %d bytes (vasm.Instr: %d)", size, unsafe.Sizeof(vasm.Instr{}))
	if size > 32 {
		t.Errorf("mcode.Instr is %d bytes, want at most 32", size)
	}
	for _, v := range []any{mcode.Instr{}, mcode.Exit{}, mcode.Inline{}} {
		if path := pointerField(reflect.TypeOf(v), reflect.TypeOf(v).Name()); path != "" {
			t.Errorf("%s holds a pointer", path)
		}
	}
}

// pointerField returns the path to the first pointer-bearing field of
// t, "" when it has none.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return path + " (" + t.Kind().String() + ")"
}

// TestAssembleRejectsOverflow: a register, spill slot or window that
// does not fit its field is an assemble error, not a panic and not a
// truncated index. The spill area's size is set directly.
func TestAssembleRejectsOverflow(t *testing.T) {
	const slots = 1 << 16 // past the value file's 16-bit index
	far := vasm.SpillRegBase + slots - 1
	with := func(op vasm.Op, edit func(*vasm.Instr)) vasm.Instr {
		in := ins(op)
		edit(&in)
		return in
	}
	cases := []struct {
		name string
		in   vasm.Instr
	}{
		{"operand-in-far-slot", with(vasm.AddI, func(in *vasm.Instr) { in.D, in.A, in.B = 0, far, 0 })},
		{"result-in-far-slot", with(vasm.LdLoc, func(in *vasm.Instr) { in.D = far })},
		{"spill-to-far-slot", with(vasm.Spill, func(in *vasm.Instr) { in.A, in.I64 = 0, slots-1 })},
		{"reload-from-far-slot", with(vasm.Reload, func(in *vasm.Instr) { in.D, in.I64 = 0, slots-1 })},
		{"argument-in-far-slot", with(vasm.Helper, func(in *vasm.Instr) { in.Args = []vasm.Reg{0, far} })},
		{"exit-stack-in-far-slot", with(vasm.BindJmp, func(in *vasm.Instr) {
			in.Target1, in.Ex = 1, &vasm.ExitInfo{StackRegs: []vasm.Reg{far}}
		})},
		// The constant slots follow the spill slots: with 1<<16 of those,
		// constant 0 is past the index too.
		{"constant-past-the-slots", with(vasm.AddI, func(in *vasm.Instr) { in.D, in.A, in.B = 0, 0, vasm.ImmReg(0) })},
		{"argument-window", with(vasm.Helper, func(in *vasm.Instr) {
			in.Args = make([]vasm.Reg, math.MaxUint16+1) // r0, once more than a window holds
		})},
	}
	for _, tc := range cases {
		u := unitWith(tc.in)
		u.NumSpills = slots
		c, err := mcode.Assemble(u)
		var ae *mcode.AssembleError
		if !errors.As(err, &ae) {
			t.Errorf("%s: Assemble = (%v, %v), want an *AssembleError", tc.name, c, err)
			continue
		}
		if ae.Index != 0 || ae.Op != tc.in.Op {
			t.Errorf("%s: error locates #%d %s, want #0 %s", tc.name, ae.Index, ae.Op, tc.in.Op)
		}
	}
	// The last slot that fits is fine.
	u := unitWith(with(vasm.AddI, func(in *vasm.Instr) {
		in.D, in.A, in.B = 0, vasm.SpillRegBase+vasm.Reg(mcode.NoReg-vasm.TotalMachineRegs-1), 0
	}))
	u.NumSpills = slots
	if _, err := mcode.Assemble(u); err != nil {
		t.Errorf("the last spill slot the index holds: %v", err)
	}
}

// TestNewCarriesItsClass: a `new` of a class linked when the code is
// assembled carries the class's ClassID, so the machine skips the
// by-name lookup; one of a class that is not linked keeps the name and
// the by-name path, which raises. Decoding gives back the helper as
// lowered.
func TestNewCarriesItsClass(t *testing.T) {
	for name, want := range map[string]int64{"Box": 7, "Nope": 0} {
		in := ins(vasm.Helper)
		in.D, in.I64, in.Str = 0, vasm.PackHelper(vasm.HNewObj, 0), name
		u := unitWith(in)
		u.Classes = map[string]*runtime.Class{"Box": {Name: "Box", ClassID: 7}}
		c, err := mcode.Assemble(u)
		if err != nil {
			t.Fatal(err)
		}
		if hid, extra := vasm.UnpackHelper(c.Instrs[0].I64); hid != vasm.HNewObj || extra != want {
			t.Errorf("new %s: helper %s, class %d; want new_obj, %d", name, hid, extra, want)
		}
		if got := c.Decode(0); !reflect.DeepEqual(got, in) {
			t.Errorf("new %s decodes as %+v, want %+v", name, got, in)
		}
	}
}

// TestDecodeRoundTrip: every operand family survives encoding — spill
// slots, constants, jump tables, exits with inline frames, strings. Only
// the constants an operand carries get a constant slot, in stream order,
// and they come first in Consts.
func TestDecodeRoundTrip(t *testing.T) {
	s0, s1 := vasm.SpillRegBase, vasm.SpillRegBase+1
	c0, c1 := vasm.ImmReg(0), vasm.ImmReg(1)
	add := ins(vasm.AddI)
	add.D, add.A, add.B = 1, 2, c1
	st := ins(vasm.StLoc)
	st.A, st.I64 = c0, 3
	spill, reload := ins(vasm.Spill), ins(vasm.Reload)
	spill.A, spill.I64 = 1, 1
	reload.D, reload.I64 = 5, 1
	help := ins(vasm.Helper)
	help.D, help.Args, help.Str, help.Target1 = 6, []vasm.Reg{s1, 0, c1, s0}, "prop", 1
	help.I64 = vasm.PackHelper(vasm.HLdPropGeneric, 0)
	table := ins(vasm.JmpTable)
	table.A, table.I64 = 6, 0
	bind := ins(vasm.BindJmp)
	bind.I64, bind.Target1 = 9, 1
	bind.Ex = &vasm.ExitInfo{BCOff: 4, StackRegs: []vasm.Reg{s0, 2, c0}, Inline: &vasm.InlineInfo{
		FuncID: 3, LocalsBase: 5, ThisReg: s1, RetBCOff: 8, CallerStackRegs: []vasm.Reg{1, c1},
		Parent: &vasm.InlineInfo{FuncID: 2, ThisReg: vasm.InvalidReg, RetBCOff: 6},
	}}
	ld := ins(vasm.LdImm)
	ld.D, ld.I64 = 7, 2
	u := unitWith(add)
	u.Blocks[0].Instrs = []vasm.Instr{add, st, spill, reload, help, table, bind}
	u.Blocks[1].Instrs = append(u.Blocks[1].Instrs, ld)
	u.Imms = []vasm.ImmValue{{Kind: types.KNull}, {Kind: types.KInt, I: -7}, {Kind: types.KDbl, D: 0.5}}
	u.NumSpills = 2
	u.Tables = []vasm.JumpTable{{Base: 10, Targets: []int{2, 1, 2}, Default: 1}}
	u.Layout = []int{2, 0, 1}
	c, err := mcode.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, u, c)
	if got := c.Table(6); got.Base != 10 || !reflect.DeepEqual(got.Targets, []int{0, 8, 0}) || got.Default != 8 {
		t.Errorf("jump table decodes as %+v, want base 10, targets [0 8 0], default 8", got)
	}
	// The value file: 15 machine registers, 2 spill slots, then a
	// constant slot for each constant an operand carries, in stream
	// order. The layout puts block 2 (a ret) first: the add is #1 and
	// takes slot 0 for c1, the store #2 slot 1 for c0. The double only
	// the LdImm (#9) reads has none, and comes after them in Consts.
	if base := vasm.TotalMachineRegs + 2; c.ConstBase() != base || c.NumSlots != 2 || c.NumValues() != base+2 ||
		int(c.Instrs[1].B) != base || int(c.Instrs[2].A) != base+1 {
		t.Errorf("%d constant slots from %d of %d values, add reads %d, store %d; want 2 from %d of %d, %d, %d",
			c.NumSlots, c.ConstBase(), c.NumValues(), c.Instrs[1].B, c.Instrs[2].A, base, base+2, base, base+1)
	}
	if want := []runtime.Value{runtime.Int(-7), runtime.Null(), runtime.Dbl(0.5)}; !reflect.DeepEqual(c.Consts[:3], want) ||
		c.Instrs[9].I64 != 2 {
		t.Errorf("constants %v, the ldimm loads #%d; want %v, #2", c.Consts[:3], c.Instrs[9].I64, want)
	}
	if !c.Instrs[1].Imm || !c.Instrs[2].Imm || c.Instrs[5].Imm {
		t.Errorf("Imm marks add %v, store %v, helper %v; want true, true, false",
			c.Instrs[1].Imm, c.Instrs[2].Imm, c.Instrs[5].Imm)
	}
}

// TestEqualConstantsShareASlot: operand constants of equal value read
// one constant slot, so an entry copies the value once; 0.0 and -0.0
// are different values and keep a slot each. Consts keeps an entry per
// constant.
func TestEqualConstantsShareASlot(t *testing.T) {
	add := ins(vasm.AddI)
	add.D, add.A, add.B = 1, 1, vasm.ImmReg(0)
	again := add
	again.B = vasm.ImmReg(1)
	zero, negZero := ins(vasm.StLoc), ins(vasm.StLoc)
	zero.A, negZero.A, negZero.I64 = vasm.ImmReg(2), vasm.ImmReg(3), 1
	ret := ins(vasm.Ret)
	ret.A = 1
	u := unitWith(add)
	u.Blocks[0].Instrs = []vasm.Instr{add, again, zero, negZero, ret}
	u.Imms = []vasm.ImmValue{{Kind: types.KInt, I: 5}, {Kind: types.KInt, I: 5},
		{Kind: types.KDbl, D: 0}, {Kind: types.KDbl, D: math.Copysign(0, -1)}}
	c, err := mcode.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, u, c)
	base := c.ConstBase()
	if c.NumSlots != 3 || int(c.Instrs[0].B) != base || int(c.Instrs[1].B) != base ||
		int(c.Instrs[2].A) != base+1 || int(c.Instrs[3].A) != base+2 {
		t.Errorf("%d slots from %d; the adds read %d and %d, the stores %d and %d; want 3, the adds %d, the stores %d and %d",
			c.NumSlots, base, c.Instrs[0].B, c.Instrs[1].B, c.Instrs[2].A, c.Instrs[3].A, base, base+1, base+2)
	}
	if want := []runtime.Value{runtime.Int(5), runtime.Dbl(0), runtime.Dbl(math.Copysign(0, -1))}; !slices.Equal(c.Consts[:3], want) ||
		len(c.Consts) != len(u.Imms) {
		t.Errorf("constants %v, want %v and %d entries", c.Consts, want, len(u.Imms))
	}
}

// TestSiteDecodesToWhatItAssembled: for every unit the warmed site
// compiles, as its compile hands it to Assemble, decoding the code
// gives back each instruction assembled, its operands mapped through
// the encoding — block ids to stream indexes, guard types to checks.
func TestSiteDecodesToWhatItAssembled(t *testing.T) {
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var units []*vasm.Unit
	eng.VM.JIT.SetAllocationCheck(func(_ *hhir.Unit, _, after *vasm.Unit) {
		units = append(units, after.Clone())
	})
	if err := perflab.Warm(eng, eps, 10, nil); err != nil {
		t.Fatal(err)
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("warm-up did not reach the optimized tier")
	}
	spills, consts := 0, 0
	for _, u := range units {
		vasm.Fuse(u) // as the default configuration compiles
		c, err := mcode.Assemble(u)
		if err != nil {
			t.Fatal(err)
		}
		if !checkRoundTrip(t, u, c) {
			return
		}
		spills += u.NumSpills
		for i := range c.Instrs {
			in := c.Decode(i)
			for _, r := range append([]vasm.Reg{in.A, in.B}, in.Args...) {
				if r.IsImm() {
					consts++
				}
			}
		}
	}
	if len(units) < 1000 || spills == 0 || consts == 0 {
		t.Errorf("%d units with %d spill slots and %d constant operands: the site no longer exercises the encoding",
			len(units), spills, consts)
	}
}

// exitNilEmpty is a copy of ex whose empty register lists are nil, as
// decoding gives them.
func exitNilEmpty(ex *vasm.ExitInfo) *vasm.ExitInfo {
	nilEmpty := func(regs []vasm.Reg) []vasm.Reg {
		if len(regs) == 0 {
			return nil
		}
		return slices.Clone(regs)
	}
	cp := *ex
	cp.StackRegs = nilEmpty(ex.StackRegs)
	link := &cp.Inline
	for ii := ex.Inline; ii != nil; ii = ii.Parent {
		fr := *ii
		fr.CallerStackRegs = nilEmpty(ii.CallerStackRegs)
		*link, link = &fr, &fr.Parent
	}
	return &cp
}

// checkRoundTrip compares c, assembled from u, with u instruction by
// instruction, and reports whether they agree.
func checkRoundTrip(t *testing.T, u *vasm.Unit, c *mcode.Code) bool {
	t.Helper()
	// Where each block starts in the stream: the layout order, less the
	// jumps it turned into fallthroughs.
	starts := make([]int, len(u.Blocks))
	for i := range starts {
		starts[i] = -1
	}
	var stream []*vasm.Instr
	for _, bi := range u.Order() {
		starts[bi] = len(stream)
		for i := range u.Blocks[bi].Instrs {
			if in := &u.Blocks[bi].Instrs[i]; in.Op != vasm.Jmp || in.I64&1 == 0 {
				stream = append(stream, in)
			}
		}
	}
	if len(stream) != len(c.Instrs) || c.Entry() != starts[0] {
		t.Errorf("%d instructions entered at #%d, want %d entered at #%d", len(c.Instrs), c.Entry(), len(stream), starts[0])
		return false
	}
	checks := len(u.Entry)
	// at maps the unit's constants to their indexes in c.Consts as the
	// stream reads them: one index each, holding the constant's value,
	// and below NumSlots exactly for those some operand carries. Many
	// constants map to one slot when their values are equal; an index
	// past the slots belongs to one constant.
	at, carried := map[int]int{}, map[int]bool{}
	place := func(k, i int, operand bool) int {
		if j, ok := at[k]; ok && j != i || i < 0 || i >= len(u.Imms) {
			return -1
		}
		at[k] = i
		carried[k] = carried[k] || operand
		return i
	}
	for i, orig := range stream {
		want := *orig
		if want.Target1 >= 0 {
			want.Target1 = starts[want.Target1]
		}
		switch want.Op {
		case vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc:
			want.Target2 = starts[want.Target2]
		case vasm.GuardKind, vasm.LdLocGK:
			want.Target2 = checks
			checks++
		case vasm.JmpTable:
		default:
			want.Target2 = -1 // not an operand of these ops
		}
		if len(want.Args) == 0 {
			want.Args = nil
		}
		if want.Ex != nil {
			want.Ex = exitNilEmpty(want.Ex)
		}
		want.Args = slices.Clone(want.Args)
		got := c.Decode(i)
		if want.Op == vasm.CallBuiltin && got.I64 > 0 && c.Builtins[got.I64-1].Name == want.Str {
			want.I64 = got.I64 // bound to the native it names
		}
		if want.Op == vasm.LdImm {
			want.I64 = int64(place(int(want.I64), int(got.I64), false))
		}
		forRegPairs(&want, &got, func(w *vasm.Reg, g vasm.Reg) {
			if w.IsImm() && g.IsImm() {
				*w = vasm.ImmReg(place(w.Imm(), g.Imm(), true))
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("#%d decodes as %s %+v (exit %+v)\nassembled from %s %+v (exit %+v)",
				i, got.String(), got, got.Ex, want.String(), want, want.Ex)
			return false
		}
		if want.Op == vasm.JmpTable {
			orig := u.Tables[want.I64]
			tbl := vasm.JumpTable{Base: orig.Base, Default: starts[orig.Default]}
			for _, b := range orig.Targets {
				tbl.Targets = append(tbl.Targets, starts[b])
			}
			if got := c.Table(i); !reflect.DeepEqual(got, tbl) {
				t.Errorf("#%d: jump table decodes as %+v, want %+v", i, got, tbl)
				return false
			}
		}
	}
	seen := map[int]bool{}
	for k, i := range at {
		if seen[i] && i >= c.NumSlots || c.Consts[i] != mcode.ConstValue(u.Imms[k]) || carried[k] != (i < c.NumSlots) {
			t.Errorf("constant c%d (%+v, carried %v) is Consts[%d] = %v of %d slots; shared: %v",
				k, u.Imms[k], carried[k], i, c.Consts[i], c.NumSlots, seen[i])
			return false
		}
		seen[i] = true
	}
	for i := range c.NumSlots {
		if j := slices.Index(c.Consts[:i], c.Consts[i]); j >= 0 || !seen[i] {
			t.Errorf("constant slot %d holds %v (carried: %v), as slot %d does", i, c.Consts[i], seen[i], j)
			return false
		}
	}
	return true
}

// forRegPairs calls fn with each register operand of want, as a pointer,
// and the register got holds in its place, while the two have the same
// shape: A, B, the operand list, an exit's stack and inline frames.
func forRegPairs(want, got *vasm.Instr, fn func(w *vasm.Reg, g vasm.Reg)) {
	pairs := func(w, g []vasm.Reg) {
		if len(w) == len(g) {
			for j := range w {
				fn(&w[j], g[j])
			}
		}
	}
	fn(&want.A, got.A)
	fn(&want.B, got.B)
	pairs(want.Args, got.Args)
	if want.Ex == nil || got.Ex == nil {
		return
	}
	pairs(want.Ex.StackRegs, got.Ex.StackRegs)
	for w, g := want.Ex.Inline, got.Ex.Inline; w != nil && g != nil; w, g = w.Parent, g.Parent {
		fn(&w.ThisReg, g.ThisReg)
		pairs(w.CallerStackRegs, g.CallerStackRegs)
	}
}
