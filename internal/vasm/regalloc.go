package vasm

import (
	"fmt"
	"math/bits"
	"slices"
)

// Reserved scratch physical registers for spilled operands.
const (
	scratch0 = Reg(NumPhysRegs)
	scratch1 = Reg(NumPhysRegs + 1)
)

// TotalMachineRegs is the machine register file size: the allocatable
// registers, the two scratch registers, and one the back end reserves
// but does not use yet.
const TotalMachineRegs = NumPhysRegs + 3

// SpillRegBase: register numbers at or above this value denote spill
// slots in call-argument and exit-stack lists (the machine reads them
// from the spill area).
const SpillRegBase = Reg(1 << 16)

// unallocatedReg is what rewrite leaves where a vreg has no location —
// one read before any definition, the only way Allocate withholds one.
// It is neither a machine register nor a spill reference, so
// mcode.Assemble rejects the stream and the translation fails to
// compile instead of clobbering whatever lives in some real register.
const unallocatedReg = SpillRegBase - 1

// AllocStats summarizes one Allocate run.
type AllocStats struct {
	// VRegs is the number of virtual registers that got a location,
	// Spilled how many of them live in a spill slot.
	VRegs, Spilled int
	// CopiesCoalesced counts Copy instructions deleted because source
	// and destination were given the same register.
	CopiesCoalesced int
	// MaxPressure is the largest number of values live at one position.
	MaxPressure int
	// Aliased counts the HHIR values Lower gave the register of the value
	// they rename instead of one of their own and a Copy.
	Aliased int
}

func (s AllocStats) String() string {
	return fmt.Sprintf("%d vregs, %d spilled, %d copies coalesced, %d aliased, max pressure %d",
		s.VRegs, s.Spilled, s.CopiesCoalesced, s.Aliased, s.MaxPressure)
}

// Add accumulates o into s (MaxPressure takes the maximum).
func (s *AllocStats) Add(o AllocStats) {
	s.VRegs += o.VRegs
	s.Spilled += o.Spilled
	s.CopiesCoalesced += o.CopiesCoalesced
	s.Aliased += o.Aliased
	s.MaxPressure = max(s.MaxPressure, o.MaxPressure)
}

// Allocate performs SSA-style linear-scan register allocation after
// Wimmer & Franz over live ranges with lifetime holes (DESIGN.md §6,
// "Register allocation and the instruction stream"). Per vreg it builds the sorted list of
// disjoint segments of doubled linear positions at which the value is
// live — instruction p reads at 2p and writes at 2p+1, so a result may
// take the register of an operand that dies there — then walks the
// vregs in order of first start and gives each the first of
// NumPhysRegs registers whose occupants' segments it does not
// intersect, trying the registers of its Copy partners first so that
// the copy becomes `copy rX, rX` and is deleted. A vreg that fits
// nowhere lives in a spill slot: a Reload into a scratch register
// before each use, a Spill after each definition, and a direct
// spill-slot reference (SpillRegBase+slot) in argument and exit lists.
//
// All working state is slices and bitsets indexed by vreg, block or
// position, so the same unit always yields the same code.
func Allocate(u *Unit) {
	a := newAllocator(u)
	a.liveness()
	a.buildRanges()
	a.assign()
	a.rewrite()
	u.RegOf = a.loc
	u.NumSpills = a.spills
	u.Alloc.Spilled = a.spills
}

// bitset is a set of vregs.
type bitset []uint64

func (b bitset) has(r Reg) bool { return b[r>>6]&(1<<(r&63)) != 0 }
func (b bitset) add(r Reg)      { b[r>>6] |= 1 << (r & 63) }
func (b bitset) remove(r Reg)   { b[r>>6] &^= 1 << (r & 63) }

// seg is one live segment [from, to] (inclusive doubled positions) of
// a vreg, or — once assigned — of a physical register's occupancy;
// next links the sorted list it belongs to.
type seg struct{ from, to, next int32 }

// hintLink is one Copy partner of a vreg.
type hintLink struct {
	other Reg
	next  int32
}

type allocator struct {
	u     *Unit
	order []int
	// first[b] is the linear position of block b's first instruction
	// (-1 for a block outside the layout).
	first []int32
	n, nw int // vregs; words per live set

	liveIn bitset // per block, nw words each
	live   bitset // the walk's current live set

	segs     []seg
	head     []int32 // per vreg: its first segment (-1 = never mentioned)
	openTo   []int32 // per live vreg during a block walk: where its open segment ends
	hints    []hintLink
	hintHead []int32

	loc    []Reg // per vreg: the location assigned (Unit.RegOf)
	spills int

	// Slabs the rewritten exit descriptors are cut from, sized exactly
	// by newAllocator (they are never reallocated: instructions point
	// into them).
	exits    []ExitInfo
	inlines  []InlineInfo
	exitRegs []Reg
}

func newAllocator(u *Unit) *allocator {
	a := &allocator{u: u, order: u.Order(), n: u.NumVRegs}
	pos, copies := int32(0), 0
	exits, inlines, exitRegs := 0, 0, 0
	grow := func(r Reg) {
		if int(r) >= a.n {
			a.n = int(r) + 1
		}
	}
	for _, bi := range a.order {
		b := u.Blocks[bi]
		// Hand-built units need not set NumVRegs: size the tables by the
		// registers the code mentions.
		for i := range b.Instrs {
			in := &b.Instrs[i]
			grow(in.D)
			in.ForEachUse(grow)
			if in.Op == Copy {
				copies++
			}
			if in.Ex != nil {
				exits++
				exitRegs += len(in.Ex.StackRegs)
				for ii := in.Ex.Inline; ii != nil; ii = ii.Parent {
					inlines++
					exitRegs += len(ii.CallerStackRegs)
				}
			}
		}
	}
	a.exits = make([]ExitInfo, 0, exits)
	a.inlines = make([]InlineInfo, 0, inlines)
	a.exitRegs = make([]Reg, 0, exitRegs)
	a.nw = (a.n + 63) / 64
	a.liveIn = make([]uint64, (len(u.Blocks)+1)*a.nw)
	a.live = a.liveIn[len(u.Blocks)*a.nw:]
	ints := make([]int32, 3*a.n+len(u.Blocks))
	for i := range ints {
		ints[i] = -1
	}
	a.head, a.openTo, a.hintHead, a.first = ints[:a.n:a.n], ints[a.n:2*a.n:2*a.n], ints[2*a.n:3*a.n:3*a.n], ints[3*a.n:]
	for _, bi := range a.order {
		a.first[bi] = pos
		pos += int32(len(u.Blocks[bi].Instrs))
	}
	a.segs = make([]seg, 0, a.n+a.n/2)
	a.hints = make([]hintLink, 0, 2*copies)
	a.loc = make([]Reg, a.n)
	for i := range a.loc {
		a.loc[i] = InvalidReg
	}
	return a
}

func (a *allocator) in(b int) bitset { return a.liveIn[b*a.nw : (b+1)*a.nw] }

// placed reports whether block b exists and the layout emits it.
func (a *allocator) placed(b int) bool {
	return b >= 0 && b < len(a.first) && a.first[b] >= 0
}

// liveness solves backward liveness to a fixpoint over the block
// graph. Edges leave from the middle of blocks (guards, catch stubs),
// so a block's live-in is computed by walking its instructions, not
// from one gen/kill pair: before instruction p a value is live if p
// reads it, if it is live into a block p can transfer to, or if it is
// live after p and p does not define it.
func (a *allocator) liveness() {
	live := a.live
	use := live.add
	join := func(t int) {
		if a.placed(t) {
			for w, bitsIn := range a.in(t) {
				live[w] |= bitsIn
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for oi := len(a.order) - 1; oi >= 0; oi-- {
			bi := a.order[oi]
			instrs := a.u.Blocks[bi].Instrs
			clear(live)
			for i := len(instrs) - 1; i >= 0; i-- {
				in := &instrs[i]
				if in.D != InvalidReg {
					live.remove(in.D)
				}
				in.ForEachTarget(a.u.Tables, join)
				in.ForEachUse(use)
			}
			if in := a.in(bi); !slices.Equal(in, live) {
				copy(in, live)
				changed = true
			}
		}
	}
}

// addSeg prepends [from, to] to v's range. Callers produce segments in
// decreasing position order, so the list stays sorted; one that touches
// the current first segment extends it instead.
func (a *allocator) addSeg(v Reg, from, to int32) {
	if h := a.head[v]; h >= 0 && a.segs[h].from <= to+1 {
		a.segs[h].from = from
		return
	}
	a.segs = append(a.segs, seg{from, to, a.head[v]})
	a.head[v] = int32(len(a.segs) - 1)
}

// buildRanges turns the solved liveness into per-vreg segment lists in
// one backward walk per block, last block of the layout first, and
// collects the Copy partners that become register hints.
func (a *allocator) buildRanges() {
	live := a.live
	nlive, pressure := 0, 0
	var at int32 // the use position 2p of the instruction being walked
	open := func(r Reg) {
		if !live.has(r) {
			live.add(r)
			a.openTo[r] = at
			nlive++
		}
	}
	join := func(t int) {
		if !a.placed(t) {
			return
		}
		for w, bitsIn := range a.in(t) {
			for fresh := bitsIn &^ live[w]; fresh != 0; fresh &= fresh - 1 {
				open(Reg(w<<6 + bits.TrailingZeros64(fresh)))
			}
		}
	}
	for oi := len(a.order) - 1; oi >= 0; oi-- {
		bi := a.order[oi]
		instrs := a.u.Blocks[bi].Instrs
		clear(live)
		nlive = 0
		for i := len(instrs) - 1; i >= 0; i-- {
			in := &instrs[i]
			at = 2 * (a.first[bi] + int32(i))
			if d := in.D; d != InvalidReg {
				if live.has(d) {
					pressure = max(pressure, nlive)
					a.addSeg(d, at+1, a.openTo[d])
					live.remove(d)
					nlive--
				} else {
					// A dead definition still writes its register: one
					// position, so the write lands on nothing live.
					pressure = max(pressure, nlive+1)
					a.addSeg(d, at+1, at+1)
				}
				if in.Op == Copy && in.A != InvalidReg && in.A != d {
					a.hints = append(a.hints,
						hintLink{in.A, a.hintHead[d]}, hintLink{d, a.hintHead[in.A]})
					a.hintHead[d], a.hintHead[in.A] = int32(len(a.hints)-2), int32(len(a.hints)-1)
				}
			}
			in.ForEachTarget(a.u.Tables, join)
			in.ForEachUse(open)
			pressure = max(pressure, nlive)
		}
		if len(instrs) == 0 {
			continue
		}
		blockStart := 2 * a.first[bi]
		for w, word := range live {
			for ; word != 0; word &= word - 1 {
				v := Reg(w<<6 + bits.TrailingZeros64(word))
				a.addSeg(v, blockStart, a.openTo[v])
			}
		}
	}
	a.u.Alloc.MaxPressure = pressure
}

// assign gives every vreg with a range a location.
func (a *allocator) assign() {
	vregs := make([]Reg, 0, a.n)
	for v, h := range a.head {
		if h >= 0 {
			vregs = append(vregs, Reg(v))
		}
	}
	slices.SortFunc(vregs, func(x, y Reg) int {
		if d := a.segs[a.head[x]].from - a.segs[a.head[y]].from; d != 0 {
			return int(d)
		}
		return int(x - y)
	})
	// A value live into the entry block is read before anything defines
	// it: the unit is malformed, and the vreg is left without a location
	// (see unallocatedReg).
	var undefined bitset
	if len(a.u.Blocks) > 0 {
		undefined = a.in(0)
	}

	// occ[p] heads the sorted list of segments occupying physical
	// register p that end at or after the current vreg's start; vregs
	// arrive in start order, so what ends earlier can never conflict
	// again and is dropped.
	var occ [NumPhysRegs]int32
	for p := range occ {
		occ[p] = -1
	}
	fits := func(v Reg, p Reg) bool {
		i, j := a.head[v], occ[p]
		for start := a.segs[i].from; j >= 0 && a.segs[j].to < start; {
			j = a.segs[j].next
		}
		occ[p] = j
		for i >= 0 && j >= 0 {
			switch si, sj := &a.segs[i], &a.segs[j]; {
			case si.to < sj.from:
				i = si.next
			case sj.to < si.from:
				j = sj.next
			default:
				return false
			}
		}
		return true
	}
	for _, v := range vregs {
		if undefined != nil && undefined.has(v) {
			continue
		}
		a.u.Alloc.VRegs++
		p := InvalidReg
		for l := a.hintHead[v]; l >= 0 && p == InvalidReg; l = a.hints[l].next {
			if hp := a.loc[a.hints[l].other]; hp >= 0 && hp < NumPhysRegs && fits(v, hp) {
				p = hp
			}
		}
		for q := Reg(0); q < NumPhysRegs && p == InvalidReg; q++ {
			if fits(v, q) {
				p = q
			}
		}
		if p == InvalidReg {
			a.loc[v] = SpillRegBase + Reg(a.spills)
			a.spills++
			continue
		}
		a.loc[v] = p
		// Merge v's segments into p's occupancy (both sorted, disjoint).
		link := &occ[p]
		i, j := a.head[v], occ[p]
		for i >= 0 && j >= 0 {
			if a.segs[i].from < a.segs[j].from {
				*link, link, i = i, &a.segs[i].next, a.segs[i].next
			} else {
				*link, link, j = j, &a.segs[j].next, a.segs[j].next
			}
		}
		*link = max(i, j)
	}
}

// where returns the location of vreg r as instructions name it (an
// absent operand stays absent).
func (a *allocator) where(r Reg) Reg {
	if r == InvalidReg {
		return InvalidReg
	}
	if l := a.loc[r]; l != InvalidReg {
		return l
	}
	return unallocatedReg
}

// rewrite replaces virtual registers by their locations. A spilled
// operand borrows a scratch register — A scratch0, B scratch1, D
// scratch0 again, since every instruction reads its operands before it
// writes its result — behind a Reload or ahead of a Spill; argument and
// exit-descriptor lists name the spill slot itself. A Copy whose two
// sides share a physical register is dropped.
func (a *allocator) rewrite() {
	for _, bi := range a.order {
		b := a.u.Blocks[bi]
		out := b.Instrs[:0]
		if a.spills > 0 {
			// Reloads and spills lengthen the block: no rewriting in place.
			out = make([]Instr, 0, len(b.Instrs)+len(b.Instrs)/4)
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == Copy {
				if d := a.where(in.D); d >= 0 && d < NumPhysRegs && d == a.where(in.A) {
					a.u.Alloc.CopiesCoalesced++
					continue
				}
			}
			in.A, out = a.operand(in.A, scratch0, out)
			in.B, out = a.operand(in.B, scratch1, out)
			for ai, r := range in.Args {
				in.Args[ai] = a.where(r)
			}
			if in.Ex != nil {
				in.Ex = a.exitInfo(in.Ex)
			}
			slot := Reg(-1)
			if in.D = a.where(in.D); in.D >= SpillRegBase {
				in.D, slot = scratch0, in.D-SpillRegBase
			}
			out = append(out, in)
			if slot >= 0 {
				sp := nzInstr(Spill)
				sp.A, sp.I64 = scratch0, int64(slot)
				out = append(out, sp)
			}
		}
		b.Instrs = out
	}
}

// operand maps a read operand, emitting the Reload of a spilled one
// into scratch.
func (a *allocator) operand(r, scratch Reg, out []Instr) (Reg, []Instr) {
	l := a.where(r)
	if l < SpillRegBase {
		return l, out
	}
	ld := nzInstr(Reload)
	ld.D, ld.I64 = scratch, int64(l-SpillRegBase)
	return scratch, append(out, ld)
}

// exitInfo returns ex with its registers mapped. Descriptors are
// copied, not updated in place: a BindJmp shares its stub's.
func (a *allocator) exitInfo(ex *ExitInfo) *ExitInfo {
	mapRegs := func(regs []Reg) []Reg {
		from := len(a.exitRegs)
		for _, r := range regs {
			a.exitRegs = append(a.exitRegs, a.where(r))
		}
		return a.exitRegs[from:len(a.exitRegs):len(a.exitRegs)]
	}
	a.exits = append(a.exits, *ex)
	nex := &a.exits[len(a.exits)-1]
	nex.StackRegs = mapRegs(ex.StackRegs)
	link := &nex.Inline
	for ii := ex.Inline; ii != nil; ii = ii.Parent {
		a.inlines = append(a.inlines, *ii)
		ni := &a.inlines[len(a.inlines)-1]
		ni.ThisReg = a.where(ni.ThisReg)
		ni.CallerStackRegs = mapRegs(ii.CallerStackRegs)
		*link, link = ni, &ni.Parent
	}
	return nex
}
