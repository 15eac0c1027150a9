package mcode_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mcode"
	"repro/internal/types"
	"repro/internal/vasm"
)

func TestCacheBudget(t *testing.T) {
	c := mcode.NewCache(100)
	if _, err := c.Alloc(mcode.AreaHot, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(mcode.AreaLive, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(mcode.AreaHot, 20); err == nil {
		t.Error("allocation beyond the limit succeeded")
	}
	c.Free(mcode.AreaLive, 30)
	if _, err := c.Alloc(mcode.AreaHot, 20); err != nil {
		t.Errorf("allocation after free failed: %v", err)
	}
	if c.TotalUsed() != 80 {
		t.Errorf("used = %d", c.TotalUsed())
	}
}

func TestAreasDoNotOverlap(t *testing.T) {
	c := mcode.NewCache(0)
	a, _ := c.Alloc(mcode.AreaHot, 1<<20)
	b, _ := c.Alloc(mcode.AreaCold, 1<<20)
	p, _ := c.Alloc(mcode.AreaProfile, 1<<20)
	if a == b || b == p || a == p {
		t.Error("area base addresses collide")
	}
}

func TestHugePageCoverage(t *testing.T) {
	c := mcode.NewCache(0)
	base, _ := c.Alloc(mcode.AreaHot, 4096)
	if c.HugeCovers(base) {
		t.Error("huge coverage before SetHugePages")
	}
	c.SetHugePages(4096)
	if !c.HugeCovers(base) {
		t.Error("hot code not huge-covered after SetHugePages")
	}
	if c.HugeCovers(base + 1<<30) {
		t.Error("unrelated address huge-covered")
	}
}

func TestSequentialAddresses(t *testing.T) {
	c := mcode.NewCache(0)
	a, _ := c.Alloc(mcode.AreaHot, 100)
	b, _ := c.Alloc(mcode.AreaHot, 100)
	if b != a+100 {
		t.Errorf("bump allocation not sequential: %x then %x", a, b)
	}
}

func TestFreeClampsOversizedAndCountsUnderflow(t *testing.T) {
	c := mcode.NewCache(0)
	if _, err := c.Alloc(mcode.AreaProfile, 100); err != nil {
		t.Fatal(err)
	}
	// Freeing more than the area holds must clamp to the allocated
	// bytes, not wrap the unsigned counter around.
	c.Free(mcode.AreaProfile, 150)
	if got := c.AreaUsed(mcode.AreaProfile); got != 0 {
		t.Errorf("AreaUsed after oversized free = %d, want 0", got)
	}
	if got := c.TotalUsed(); got != 0 {
		t.Errorf("TotalUsed after oversized free = %d, want 0", got)
	}
	if got := c.FreeUnderflows(); got != 1 {
		t.Errorf("FreeUnderflows = %d, want 1", got)
	}
	// An exact free is not an underflow.
	if _, err := c.Alloc(mcode.AreaProfile, 40); err != nil {
		t.Fatal(err)
	}
	c.Free(mcode.AreaProfile, 40)
	if got := c.FreeUnderflows(); got != 1 {
		t.Errorf("FreeUnderflows after exact free = %d, want still 1", got)
	}
}

func TestFreeRecyclesBumpPointerWhenAreaRetires(t *testing.T) {
	c := mcode.NewCache(0)
	base1, err := c.Alloc(mcode.AreaProfile, 64)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := c.Alloc(mcode.AreaProfile, 64)
	if err != nil {
		t.Fatal(err)
	}
	if base2 != base1+64 {
		t.Fatalf("second alloc at %#x, want %#x", base2, base1+64)
	}
	// Retire half: the bump pointer must NOT move (live code remains).
	c.Free(mcode.AreaProfile, 64)
	base3, err := c.Alloc(mcode.AreaProfile, 32)
	if err != nil {
		t.Fatal(err)
	}
	if base3 != base2+64 {
		t.Fatalf("alloc after partial free at %#x, want %#x (no recycle)", base3, base2+64)
	}
	// Retire everything: the address space is recycled.
	c.Free(mcode.AreaProfile, 64+32)
	base4, err := c.Alloc(mcode.AreaProfile, 16)
	if err != nil {
		t.Fatal(err)
	}
	if base4 != base1 {
		t.Fatalf("alloc after full retire at %#x, want area base %#x", base4, base1)
	}
	// Recycling the profile area must not disturb other areas.
	if got := c.AreaUsed(mcode.AreaHot); got != 0 {
		t.Errorf("AreaUsed(hot) = %d, want 0", got)
	}
}

// assembleWithSites builds a two-block unit whose first block ends in
// a smashable BindJmp (instruction index 1).
func assembleWithSites(t *testing.T) *mcode.Code {
	t.Helper()
	u := &vasm.Unit{
		Blocks: []*vasm.Block{
			{ID: 0, Instrs: []vasm.Instr{
				{Op: vasm.LdImm, D: 0, A: vasm.InvalidReg, B: vasm.InvalidReg},
				{Op: vasm.BindJmp, D: vasm.InvalidReg, A: vasm.InvalidReg, B: vasm.InvalidReg,
					I64: 0, Ex: &vasm.ExitInfo{BCOff: 7}},
			}},
			{ID: 1, Instrs: []vasm.Instr{
				{Op: vasm.Ret, D: vasm.InvalidReg, A: 0, B: vasm.InvalidReg},
			}},
		},
		Imms: []vasm.ImmValue{{Kind: types.KInt, I: 1}},
	}
	c, err := mcode.Assemble(u)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return c
}

func TestLinkSlabStoreLoadSweep(t *testing.T) {
	c := assembleWithSites(t)
	if c.LoadLink(1) != nil {
		t.Fatal("fresh smash site should be unbound")
	}
	c.StoreLink(1, &mcode.Link{Epoch: 1, Target: "succ"})
	l := c.LoadLink(1)
	if l == nil || l.Epoch != 1 || l.Target != "succ" {
		t.Fatalf("LoadLink after store = %+v", l)
	}
	// Sweeping with the link's own epoch keeps it.
	if swept := c.SweepLinks(1); swept != 0 {
		t.Errorf("SweepLinks(same epoch) cleared %d links, want 0", swept)
	}
	if c.LoadLink(1) == nil {
		t.Fatal("current-epoch link must survive the sweep")
	}
	// A republish bumps the epoch; the stale link must go.
	if swept := c.SweepLinks(2); swept != 1 {
		t.Errorf("SweepLinks(new epoch) cleared %d links, want 1", swept)
	}
	if c.LoadLink(1) != nil {
		t.Fatal("stale link survived the treadmill sweep")
	}
	// Out-of-range loads and stores are harmless no-ops.
	if c.LoadLink(99) != nil {
		t.Error("out-of-range LoadLink should return nil")
	}
	c.StoreLink(99, &mcode.Link{Epoch: 2})

	c.StoreLink(1, &mcode.Link{Epoch: 2})
	count := 0
	c.ForEachLink(func(i int, l *mcode.Link) {
		count++
		if i != 1 || l.Epoch != 2 {
			t.Errorf("ForEachLink visited (%d, epoch %d), want (1, 2)", i, l.Epoch)
		}
	})
	if count != 1 {
		t.Errorf("ForEachLink visited %d links, want 1", count)
	}
}

func TestAssembleSlabOnlyForSmashSites(t *testing.T) {
	// A translation without smash sites carries no slab: stores are
	// no-ops and nothing is ever bound.
	plain, err := mcode.Assemble(&vasm.Unit{
		Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
			{Op: vasm.Ret, D: vasm.InvalidReg, A: 0, B: vasm.InvalidReg},
		}}},
	})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	plain.StoreLink(0, &mcode.Link{Epoch: 1})
	if plain.LoadLink(0) != nil {
		t.Error("slab-less translation accepted a link")
	}
	visited := false
	plain.ForEachLink(func(int, *mcode.Link) { visited = true })
	if visited {
		t.Error("slab-less translation visited a link")
	}

	// One smash site among 100 instructions gets exactly one slot: no
	// other instruction takes a link, and the sweep walks that one.
	const site = 57
	instrs := make([]vasm.Instr, 100)
	for i := range instrs {
		instrs[i] = ins(vasm.LdImm)
		instrs[i].D = 0
	}
	instrs[site] = ins(vasm.BindJmp)
	instrs[site].Ex = &vasm.ExitInfo{BCOff: 7}
	instrs[len(instrs)-1] = ins(vasm.Ret)
	instrs[len(instrs)-1].A = 0
	one, err := mcode.Assemble(&vasm.Unit{
		Blocks: []*vasm.Block{{ID: 0, Instrs: instrs}},
		Imms:   []vasm.ImmValue{{Kind: types.KInt, I: 1}},
	})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if want := []int32{site}; !reflect.DeepEqual(one.Sites, want) {
		t.Fatalf("Sites = %v, want %v: one slot", one.Sites, want)
	}
	for i := range one.Instrs {
		one.StoreLink(i, &mcode.Link{Epoch: uint64(i)})
	}
	bound := 0
	one.ForEachLink(func(i int, l *mcode.Link) {
		bound++
		if i != site || l.Epoch != site {
			t.Errorf("ForEachLink visited (%d, epoch %d), want (%d, %d)", i, l.Epoch, site, site)
		}
	})
	if bound != 1 || one.SweepLinks(0) != 1 {
		t.Errorf("%d links bound, want the one site's", bound)
	}
}

// ins builds an instruction the way vasm.Lower does: absent operands
// are InvalidReg and absent targets are -1.
func ins(op vasm.Op) vasm.Instr {
	return vasm.Instr{Op: op, D: vasm.InvalidReg, A: vasm.InvalidReg, B: vasm.InvalidReg,
		Target1: -1, Target2: -1}
}

// unitWith wraps one instruction under test in a three-block unit:
// B0 holds it, B1 is an exit stub, B2 a plain successor.
func unitWith(in vasm.Instr) *vasm.Unit {
	ret := ins(vasm.Ret)
	ret.A = 0
	exit := ins(vasm.Exit)
	exit.Ex = &vasm.ExitInfo{BCOff: 3}
	return &vasm.Unit{
		Blocks: []*vasm.Block{
			{ID: 0, Instrs: []vasm.Instr{in}},
			{ID: 1, Instrs: []vasm.Instr{exit}},
			{ID: 2, Instrs: []vasm.Instr{ret}},
		},
		Imms:       []vasm.ImmValue{{Kind: types.KInt, I: 1}},
		Tables:     []vasm.JumpTable{{Base: 0, Targets: []int{1, 2}, Default: 2}},
		GuardTypes: []types.Type{types.TInt},
	}
}

// TestAssembleRejectsBadTargets: a branch, guard, jump-table entry or
// catch-stub reference to a block the unit does not have used to read
// the BlockIndex map's zero value and silently restart the translation
// from its first instruction. It is an assemble error now, one case
// per instruction kind that carries a block operand.
func TestAssembleRejectsBadTargets(t *testing.T) {
	with := func(op vasm.Op, edit func(*vasm.Instr)) vasm.Instr {
		in := ins(op)
		edit(&in)
		return in
	}
	const bad = 7 // the unit has blocks 0..2
	cases := []struct {
		name string
		in   vasm.Instr
	}{
		{"jmp", with(vasm.Jmp, func(in *vasm.Instr) { in.Target1 = bad })},
		{"jmp-negative", with(vasm.Jmp, func(in *vasm.Instr) {})},
		{"jcc-taken", with(vasm.Jcc, func(in *vasm.Instr) { in.A, in.Target1, in.Target2 = 0, bad, 2 })},
		{"jcc-fallthrough", with(vasm.Jcc, func(in *vasm.Instr) { in.A, in.Target1, in.Target2 = 0, 2, bad })},
		{"cmpi+jcc", with(vasm.CmpIJcc, func(in *vasm.Instr) { in.Target1, in.Target2 = 2, bad })},
		{"cmpd+jcc", with(vasm.CmpDJcc, func(in *vasm.Instr) { in.Target1, in.Target2 = bad, 2 })},
		{"guardkind", with(vasm.GuardKind, func(in *vasm.Instr) { in.A, in.Target1, in.Target2 = 0, bad, 0 })},
		{"guardcls", with(vasm.GuardCls, func(in *vasm.Instr) { in.A, in.Target1 = 0, bad })},
		{"guardshape", with(vasm.GuardShape, func(in *vasm.Instr) { in.A, in.Target1 = 0, bad })},
		{"ldloc+guardkind", with(vasm.LdLocGK, func(in *vasm.Instr) { in.D, in.Target1, in.Target2 = 0, bad, 0 })},
		{"divd-catch", with(vasm.DivD, func(in *vasm.Instr) { in.Target1 = bad })},
		{"ldpropic-catch", with(vasm.LdPropIC, func(in *vasm.Instr) { in.Target1 = bad })},
		{"stpropic-catch", with(vasm.StPropIC, func(in *vasm.Instr) { in.Target1 = bad })},
		{"helper-catch", with(vasm.Helper, func(in *vasm.Instr) { in.Target1 = bad })},
		{"callfunc-catch", with(vasm.CallFunc, func(in *vasm.Instr) { in.Target1 = bad })},
		{"callmethodd-catch", with(vasm.CallMethodD, func(in *vasm.Instr) { in.Target1 = bad })},
		{"callmethodc-catch", with(vasm.CallMethodC, func(in *vasm.Instr) { in.Target1 = bad })},
		{"callbuiltin-catch", with(vasm.CallBuiltin, func(in *vasm.Instr) { in.Str, in.Target1 = "count", bad })},
		{"jmptable-index", with(vasm.JmpTable, func(in *vasm.Instr) { in.A, in.I64 = 0, 1 })},
		{"ldimm", with(vasm.LdImm, func(in *vasm.Instr) { in.D, in.I64 = 0, 1 })},
		// A guard's type index past the unit's guard types.
		{"guardkind-type", with(vasm.GuardKind, func(in *vasm.Instr) { in.A, in.Target1, in.Target2 = 0, 1, 1 })},
		{"ldloc+guardkind-type", with(vasm.LdLocGK, func(in *vasm.Instr) { in.D, in.Target1, in.Target2 = 0, 1, -1 })},
		// Constants: past the pool, written, on an op with no immediate
		// form, two on one instruction.
		{"const-out-of-range", with(vasm.AddI, func(in *vasm.Instr) { in.D, in.A, in.B = 0, 1, vasm.ImmReg(1) })},
		{"const-written", with(vasm.LdLoc, func(in *vasm.Instr) { in.D = vasm.ImmReg(0) })},
		{"const-no-imm-form", with(vasm.CmpI, func(in *vasm.Instr) { in.D, in.A, in.B = 0, 1, vasm.ImmReg(0) })},
		{"const-twice", with(vasm.AddI, func(in *vasm.Instr) { in.D, in.A, in.B = 0, vasm.ImmReg(0), vasm.ImmReg(0) })},
		// Registers: a virtual register that survived allocation, the
		// allocator's "no location" poison, a spill slot the unit lacks.
		{"virtual-operand", with(vasm.AddI, func(in *vasm.Instr) { in.D, in.A, in.B = 0, 1, vasm.TotalMachineRegs })},
		{"unallocated-result", with(vasm.LdLoc, func(in *vasm.Instr) { in.D = vasm.SpillRegBase - 1 })},
		{"spill-arg-out-of-range", with(vasm.Helper, func(in *vasm.Instr) { in.Args = []vasm.Reg{0, vasm.SpillRegBase} })},
		{"exit-stack-reg", with(vasm.BindJmp, func(in *vasm.Instr) {
			in.Target1, in.Ex = 1, &vasm.ExitInfo{StackRegs: []vasm.Reg{0, 99}}
		})},
	}
	for _, tc := range cases {
		c, err := mcode.Assemble(unitWith(tc.in))
		var ae *mcode.AssembleError
		if !errors.As(err, &ae) {
			t.Errorf("%s: Assemble = (%v, %v), want an *AssembleError", tc.name, c, err)
			continue
		}
		if ae.Index != 0 || ae.Op != tc.in.Op {
			t.Errorf("%s: error locates #%d %s, want #0 %s", tc.name, ae.Index, ae.Op, tc.in.Op)
		}
	}

	// Jump tables: a bad entry and a bad default.
	for name, tbl := range map[string]vasm.JumpTable{
		"jmptable-entry":   {Targets: []int{1, bad}, Default: 2},
		"jmptable-default": {Targets: []int{1, 2}, Default: bad},
	} {
		u := unitWith(with(vasm.JmpTable, func(in *vasm.Instr) { in.A = 0 }))
		u.Tables = []vasm.JumpTable{tbl}
		if _, err := mcode.Assemble(u); err == nil {
			t.Errorf("%s: Assemble accepted the table", name)
		}
	}

	// A block id inside the unit but dropped by the layout is as
	// unreachable as one outside it.
	u := unitWith(with(vasm.Jmp, func(in *vasm.Instr) { in.Target1 = 2 }))
	u.Layout = []int{0, 1}
	if _, err := mcode.Assemble(u); err == nil {
		t.Error("Assemble accepted a jump to a block the layout dropped")
	}
}

// TestAssembleDropsFallthroughJumps: a jump the layout turned into a
// fallthrough has no bytes, so it is not in the stream either — not
// dispatched, not charged — and a block it empties starts where the
// next one does.
func TestAssembleDropsFallthroughJumps(t *testing.T) {
	fall := func(to int) vasm.Instr {
		j := ins(vasm.Jmp)
		j.Target1, j.I64 = to, 1
		return j
	}
	ld, ret := ins(vasm.LdImm), ins(vasm.Ret)
	ld.D, ret.A = 0, 0
	jmp := ins(vasm.Jmp)
	jmp.Target1 = 1
	u := &vasm.Unit{
		Imms: []vasm.ImmValue{{Kind: types.KInt, I: 1}},
		Blocks: []*vasm.Block{
			{ID: 0, Instrs: []vasm.Instr{fall(1)}},     // emptied
			{ID: 1, Instrs: []vasm.Instr{ld, fall(2)}}, // keeps its load
			{ID: 2, Instrs: []vasm.Instr{ret}},
			{ID: 3, Instrs: []vasm.Instr{jmp}}, // a real jump stays
		},
	}
	c, err := mcode.Assemble(u)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	var got []vasm.Op
	for _, in := range c.Instrs {
		got = append(got, in.Op)
	}
	if want := []vasm.Op{vasm.LdImm, vasm.Ret, vasm.Jmp}; !reflect.DeepEqual(got, want) {
		t.Errorf("stream %v, want %v", got, want)
	}
	// Block 0 is emptied, so the entry is block 1's load; the real jump
	// lands there too.
	if c.Entry() != 0 || c.Instrs[2].T1 != 0 {
		t.Errorf("entry %d, jump to B1 lands at #%d; want both at #0", c.Entry(), c.Instrs[2].T1)
	}
	if c.ElidedJumps != 2 || c.Size != 10+8+5 {
		t.Errorf("%d jumps elided, %d bytes; want 2 and 23", c.ElidedJumps, c.Size)
	}
}

// TestAssembleResolvesTables: the happy path of the same operands —
// block ids become stream indexes in layout order, "no catch stub" (-1)
// is legal, immediates are materialized with strings interned once,
// and builtin names are bound.
func TestAssembleResolvesTables(t *testing.T) {
	jcc := ins(vasm.Jcc)
	jcc.A, jcc.Target1, jcc.Target2 = 0, 1, 2
	ldA, ldB := ins(vasm.LdImm), ins(vasm.LdImm)
	ldA.D, ldA.I64 = 0, 0
	ldB.D, ldB.I64 = 1, 1
	known, unknown, again := ins(vasm.CallBuiltin), ins(vasm.CallBuiltin), ins(vasm.CallBuiltin)
	known.Str, unknown.Str, again.Str = "strlen", "no_such_builtin", "strlen"
	u := unitWith(jcc)
	u.Blocks[0].Instrs = []vasm.Instr{ldA, ldB, known, unknown, again, jcc}
	u.Imms = []vasm.ImmValue{{Kind: types.KStr, S: "lit"}, {Kind: types.KStr, S: "lit"}}
	u.Layout = []int{2, 0, 1} // hot successor first, entry second

	c, err := mcode.Assemble(u)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if c.Entry() != 1 {
		t.Errorf("Entry() = %d, want 1 (block 0 is laid out second)", c.Entry())
	}
	if jcc := c.Instrs[6]; jcc.T1 != 7 || jcc.T2 != 0 {
		t.Errorf("jcc targets #%d, #%d; want B1 at #7, B2 at #0", jcc.T1, jcc.T2)
	}
	// The unit's constants, then the three calls' names.
	if len(c.Consts) != 2+3 || c.Consts[0].Kind != types.KStr ||
		c.Consts[0].AsStr().Data != "lit" || c.Consts[0].AsStr() != c.Consts[1].AsStr() {
		t.Errorf("Consts = %+v, want two copies of one interned \"lit\", then three names", c.Consts)
	}
	if got := c.Str(c.Instrs[4].T2); got != "no_such_builtin" {
		t.Errorf("unresolved call names %q, want no_such_builtin", got)
	}
	if len(c.Builtins) != 1 || c.Builtins[0].Name != "strlen" {
		t.Fatalf("Builtins = %v, want [strlen]", c.Builtins)
	}
	if a, b, un := c.Instrs[3].I64, c.Instrs[5].I64, c.Instrs[4].I64; a != 1 || b != 1 || un != 0 {
		t.Errorf("CallBuiltin bindings = %d, %d (unknown: %d), want 1, 1, 0", a, b, un)
	}
}
