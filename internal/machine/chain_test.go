package machine_test

import (
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/shapes"
	"repro/internal/types"
	"repro/internal/vasm"
)

// The machine's two link-slot readers, driven on hand-assembled units:
// chainFrom follows a bind jump's smashed link (or falls back, or marks
// the exit for the dispatcher), and probePropIC reads and rewrites the
// shape IC a property site keeps in the same slot. A fake ChainTarget
// stands in for *jit.Translation.

// fakeTarget is a translation seen from the chaining path whose entry
// guards pass or miss as told, checking guards of them; it records the
// source each check was given.
type fakeTarget struct {
	code   *mcode.Code
	match  bool
	guards int
	froms  []*mcode.Code
}

func (t *fakeTarget) ChainCode() *mcode.Code { return t.code }
func (t *fakeTarget) ChainMatch(_ *interp.Frame, from *mcode.Code) (int, bool) {
	t.froms = append(t.froms, from)
	return t.guards, t.match
}
func (t *fakeTarget) ChainLink(epoch uint64) *mcode.Link { return &mcode.Link{Epoch: epoch, Target: t} }

// assemble places u as chainable code.
func assemble(t *testing.T, u *vasm.Unit) *mcode.Code {
	t.Helper()
	code := place(t, u, 0x10000, false)
	code.Chainable = true
	return code
}

// bindJmpTo is a translation that ends at once in a bind jump to
// bytecode pc: its smash site is stream index 0.
func bindJmpTo(t *testing.T, pc int64) *mcode.Code {
	return assemble(t, &vasm.Unit{Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		{Op: vasm.BindJmp, D: inv, A: inv, B: inv, I64: pc},
	}}}})
}

// returning is a chain target whose code returns v.
func returning(t *testing.T, v int64, match bool) *fakeTarget {
	code := assemble(t, &vasm.Unit{Imms: ints(v), Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		{Op: vasm.LdImm, D: 1, A: inv, B: inv, I64: 0},
		{Op: vasm.Ret, D: inv, A: 1, B: inv},
	}}}})
	return &fakeTarget{code: code, match: match, guards: 1}
}

// linkedMachine is a cold machine whose translation index is at epoch.
func linkedMachine(epoch uint64) *machine.Machine {
	env := &interp.Env{Unit: &hhbc.Unit{}, Heap: runtime.NewHeap()}
	m := machine.New(env, &machine.Meter{}, nil, mcode.NewCache(0))
	m.Epoch = &atomic.Uint64{}
	m.Epoch.Store(epoch)
	return m
}

func run(m *machine.Machine, code *mcode.Code, locals ...runtime.Value) machine.Outcome {
	return m.Exec(code, &interp.Frame{Fn: &hhbc.Func{ID: 1}, Locals: locals})
}

// TestChainFollowsMatchingLink: a current link whose target's guards
// pass is taken directly — the dispatcher and the fallback scan are
// never consulted.
func TestChainFollowsMatchingLink(t *testing.T) {
	src, target := bindJmpTo(t, 5), returning(t, 1, true)
	m := linkedMachine(1)
	m.Fallback = func(*interp.Frame) machine.ChainTarget {
		t.Error("fallback scanned for a link whose guards pass")
		return nil
	}
	src.StoreLink(0, target.ChainLink(1))
	out := run(m, src)
	if out.Kind != machine.Returned || out.Value != runtime.Int(1) {
		t.Fatalf("outcome %+v, want the linked target's Returned 1", out)
	}
	if got := m.Chain.ChainedJumps.Load(); got != 1 {
		t.Errorf("%d chained jumps, want 1", got)
	}
}

// TestChainTellsOnlyABindItsSource: a chained transfer out of a bind
// jump hands the target the code it left, whose end state may prove the
// target's guards; one out of a side exit, which leaves from inside the
// translation, hands it nil. Either is charged chainGuardCost for each
// guard the target says it checked.
func TestChainTellsOnlyABindItsSource(t *testing.T) {
	sideExit := assemble(t, &vasm.Unit{Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		{Op: vasm.Exit, D: inv, A: inv, B: inv, Ex: &vasm.ExitInfo{BCOff: 5}},
	}}}})
	for _, c := range []struct {
		name string
		src  *mcode.Code
		bind bool
	}{{"bind", bindJmpTo(t, 5), true}, {"side_exit", sideExit, false}} {
		t.Run(c.name, func(t *testing.T) {
			var cycles [2]uint64
			for i, guards := range []int{0, 3} {
				target := returning(t, 1, true)
				target.guards = guards
				m := linkedMachine(1)
				c.src.StoreLink(0, target.ChainLink(1))
				if out := run(m, c.src); out.Kind != machine.Returned || m.Chain.ChainedJumps.Load() != 1 {
					t.Fatalf("outcome %+v after %d chained jumps, want the target's Returned after 1",
						out, m.Chain.ChainedJumps.Load())
				}
				if len(target.froms) != 1 || (target.froms[0] == c.src) != c.bind || (target.froms[0] == nil) == c.bind {
					t.Errorf("ChainMatch given sources %v; want the source code: %v", target.froms, c.bind)
				}
				cycles[i] = m.Meter.Cycles
			}
			if d := cycles[1] - cycles[0]; d != 3 {
				t.Errorf("three checked guards cost %d cycles more than none, want 3", d)
			}
		})
	}
}

// TestChainGuardMissTakesFallback: a link whose target's guards miss
// the live frame counts as a chain mismatch and cascades to Fallback's
// match. With no match there the exit leaves the machine marked with
// its smash site, so the dispatcher's pick gets smashed into it.
func TestChainGuardMissTakesFallback(t *testing.T) {
	for _, hasAlt := range []bool{true, false} {
		t.Run("fallback_match="+strconv.FormatBool(hasAlt), func(t *testing.T) {
			src, miss, alt := bindJmpTo(t, 5), returning(t, 1, false), returning(t, 2, true)
			m := linkedMachine(1)
			m.Fallback = func(*interp.Frame) machine.ChainTarget {
				if hasAlt {
					return alt
				}
				return nil
			}
			src.StoreLink(0, miss.ChainLink(1))
			out := run(m, src)
			if got := m.Chain.ChainMismatches.Load(); got != 1 {
				t.Errorf("%d chain mismatches, want 1", got)
			}
			if hasAlt {
				if out.Kind != machine.Returned || out.Value != runtime.Int(2) {
					t.Fatalf("outcome %+v, want Fallback's Returned 2", out)
				}
				return
			}
			if out.Kind != machine.BindRequest || out.BCOff != 5 {
				t.Fatalf("outcome %+v, want a BindRequest for bytecode 5", out)
			}
			if out.BindCode != src || out.BindInstr != 0 {
				t.Errorf("exit marks smash site (%p, %d), want (%p, 0)", out.BindCode, out.BindInstr, src)
			}
			if got := m.Chain.ChainedJumps.Load(); got != 0 {
				t.Errorf("%d chained jumps, want 0", got)
			}
		})
	}
}

// TestChainStaleLinkResmashed: a link stamped with an older epoch is
// not trusted. Fallback supplies the target, and the site is re-smashed
// in place under the current epoch so the next transfer skips the
// scan. Links are never frozen, so the one case runs as freeze=false.
func TestChainStaleLinkResmashed(t *testing.T) {
	t.Run("freeze=false", func(t *testing.T) {
		src, target := bindJmpTo(t, 5), returning(t, 3, true)
		m := linkedMachine(2)
		m.Fallback = func(*interp.Frame) machine.ChainTarget { return target }
		src.StoreLink(0, target.ChainLink(1))
		out := run(m, src)
		if out.Kind != machine.Returned || out.Value != runtime.Int(3) {
			t.Fatalf("outcome %+v, want Returned 3", out)
		}
		if got := m.Chain.StaleLinks.Load(); got != 1 {
			t.Errorf("%d stale links, want 1", got)
		}
		if got := m.Chain.BindsSmashed.Load(); got != 1 {
			t.Errorf("%d binds smashed, want 1", got)
		}
		if l := src.LoadLink(0); l == nil || l.Epoch != 2 || l.Target != target {
			t.Errorf("link after the transfer %+v, want epoch 2 to the target", l)
		}
	})
}

// TestPropICFillHitMegaStale walks one LdPropIC site through its
// life: a miss fills an entry and the next probe of that shape hits;
// the fifth shape makes the site megamorphic, after which every probe
// takes the generic path; a table from an older epoch is dropped and
// rebuilt. Property "p" sits in a different slot under each shape, so
// a wrong slot shows in the value read.
func TestPropICFillHitMegaStale(t *testing.T) {
	tree := shapes.NewTree()
	h := runtime.NewHeap()
	objs := make([]runtime.Value, 5)
	for k := range objs {
		slots := make([]shapes.Slot, 0, k+1)
		init := make([]runtime.Value, 0, k+1)
		for f := 0; f < k; f++ {
			slots = append(slots, shapes.Slot{Name: "f" + strconv.Itoa(f), Kind: types.KInt})
			init = append(init, runtime.Int(-1))
		}
		slots = append(slots, shapes.Slot{Name: "p", Kind: types.KInt})
		init = append(init, runtime.Int(int64(100+k)))
		cls := &runtime.Class{Name: "C" + strconv.Itoa(k), RootShape: tree.Root(slots), PropInit: init}
		objs[k] = runtime.ObjV(h.NewObject(cls))
	}
	code := assemble(t, &vasm.Unit{Blocks: []*vasm.Block{{ID: 0, Instrs: []vasm.Instr{
		{Op: vasm.LdLoc, D: 1, A: inv, B: inv, I64: 0},
		{Op: vasm.LdPropIC, D: 2, A: 1, B: inv, Str: "p", Target1: -1},
		{Op: vasm.Ret, D: inv, A: 2, B: inv},
	}}}})
	const site = 1
	m := linkedMachine(1)
	st := m.Shapes
	read := func(k int) {
		t.Helper()
		if out := run(m, code, objs[k]); out.Kind != machine.Returned || out.Value != runtime.Int(int64(100+k)) {
			t.Fatalf("reading p of shape %d: outcome %+v, want Returned %d", k, out, 100+k)
		}
	}
	table := func() (*machine.PropIC, uint64) {
		t.Helper()
		l := code.LoadLink(site)
		if l == nil {
			t.Fatal("site holds no link, want an IC table")
		}
		ic, ok := l.Target.(*machine.PropIC)
		if !ok {
			t.Fatalf("site holds %+v, want an IC table", l)
		}
		return ic, l.Epoch
	}

	read(0)
	read(0)
	if st.ICMisses.Load() != 1 || st.ICHits.Load() != 1 {
		t.Errorf("after two reads of one shape: %d misses, %d hits; want 1, 1", st.ICMisses.Load(), st.ICHits.Load())
	}
	for k := 1; k < 4; k++ {
		read(k)
	}
	if ic, _ := table(); ic.N != 4 || ic.Mega {
		t.Errorf("after four shapes the table is %+v, want 4 entries, not megamorphic", ic)
	}
	read(4)
	if ic, _ := table(); !ic.Mega {
		t.Errorf("after the fifth shape the table is %+v, want megamorphic", ic)
	}
	read(0)
	if st.ICMega.Load() != 1 || st.GenericPropCalls.Load() != 1 || st.ICHits.Load() != 1 {
		t.Errorf("megamorphic read: %d mega probes, %d generic calls, %d hits; want 1, 1, 1",
			st.ICMega.Load(), st.GenericPropCalls.Load(), st.ICHits.Load())
	}

	m.Epoch.Store(2)
	read(1)
	if got := st.ICStaleDropped.Load(); got != 1 {
		t.Errorf("%d stale tables dropped, want 1", got)
	}
	ic, epoch := table()
	if epoch != 2 || ic.Mega || ic.N != 1 || ic.Entries[0].Shape != objs[1].AsObj().ShapeID() {
		t.Errorf("rebuilt table %+v at epoch %d, want one entry for shape %d at epoch 2",
			ic, epoch, objs[1].AsObj().ShapeID())
	}
}
