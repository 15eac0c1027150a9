package hhir

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// Load forwarding across region blocks (DESIGN.md §6). Per frame slot
// the unit loads, the pass knows at each point the SSA value a LdLoc of
// that slot would produce — the value last stored, or the result of the
// first load after nothing was known — and replaces every load whose
// value is known by an AssertType of it. Facts ride every edge with the
// state at the point the edge leaves its block; where the edges into a
// block bring different values the block gets a parameter. Calls cannot
// write the caller's frame (the language has no references), so only
// the instructions with a SlotEffect end a fact.

// OptStats counts what the optimizer did to a unit's frame loads
// (diagnostics: the jit.Debug dump, `hhvm -stats`).
type OptStats struct {
	// LoadsForwarded is the number of LdLocs replaced by a value already
	// in a register, PhisInserted the block parameters that carry such
	// values across joins.
	LoadsForwarded, PhisInserted int
	// GuardLoadsShared counts the forwarded loads that fed a guard's
	// CheckType: guards that check a known value instead of loading
	// their own.
	GuardLoadsShared int
}

func (s OptStats) String() string {
	return fmt.Sprintf("%d forwarded, %d block params inserted, %d guards on a shared value",
		s.LoadsForwarded, s.PhisInserted, s.GuardLoadsShared)
}

// Add accumulates o into s.
func (s *OptStats) Add(o OptStats) {
	s.LoadsForwarded += o.LoadsForwarded
	s.PhisInserted += o.PhisInserted
	s.GuardLoadsShared += o.GuardLoadsShared
}

// Kinds of leItem.
const (
	leStore   uint8 = iota // StLoc of a value that cannot be Uninit
	leKill                 // the slot is written behind the IR's back
	leLoad                 // LdLoc, not yet classified
	leLoadDef              // LdLoc with nothing known before it: it defines
	leLoadFwd              // LdLoc of a known value: it is replaced
	leEdgeOut              // a control-flow edge leaves here
)

// leItem is one point of a block the analysis looks at, in instruction
// order: x is the dense slot index, or the edge's index for leEdgeOut.
type leItem struct {
	in   *Instr
	at   int32 // index in the block's Instrs
	x    int32
	kind uint8
}

// leEdge is one edge between reachable blocks. item is the index of its
// leItem: the state the edge carries is the state before that item.
type leEdge struct {
	in       *Instr
	from, to int32
	item     int32
	taken    bool // its arguments are in.TakenArgs, else in.NextArgs
}

func (e *leEdge) args() *[]*SSATmp {
	if e.taken {
		return &e.in.TakenArgs
	}
	return &e.in.NextArgs
}

// lePhi is a block parameter under construction: the value of a slot on
// entry to block, one operand per incoming edge (ops indexes
// leState.ops). repl is set once every operand turned out to be one and
// the same value.
type lePhi struct {
	tmp   *SSATmp
	repl  *SSATmp
	block int32
	slot  int32
	ops   int32
	next  int32 // the block's next phi, -1 at the end
}

// leState is the pass's working set. It is recycled through a free list
// rather than a sync.Pool: the collector empties a pool several times
// during one global retranslation, and the slabs would be allocated
// again for every region.
type leState struct {
	u    *Unit
	nS   int // slots the unit loads
	nW   int // words per availability set
	base int // ID of the first phi

	rpo      []*Block
	pos      []int32 // Block.ID -> index in rpo, -1 unreachable
	slotIdx  []int32 // frame slot -> dense index, -1 never loaded
	items    []leItem
	itemsOf  []int32 // per block: start in items (one extra)
	edges    []leEdge
	inOf     []int32 // per block: start in inEdges (one extra)
	inEdges  []int32
	noParams []bool   // per block: nothing is known on entry
	avail    []uint64 // per block, nW words: the slots known on entry
	cur      []uint64
	phis     []lePhi
	phiOf    []int32 // per block: its first phi, -1 none
	ops      []*SSATmp
	fwd      []*Instr
}

var leFree struct {
	sync.Mutex
	list []*leState
}

func getLEState() *leState {
	leFree.Lock()
	defer leFree.Unlock()
	if n := len(leFree.list); n > 0 {
		s := leFree.list[n-1]
		leFree.list = leFree.list[:n-1]
		return s
	}
	return &leState{}
}

// leRetainBlocks is the largest unit whose working set is kept for the
// next one. The few units beyond it (inlining-heavy regions of a
// thousand blocks) would pin slabs of their size in every compile
// worker's state for the life of the process.
const leRetainBlocks = 256

// release drops every reference into the unit and returns s to the free
// list.
func (s *leState) release() {
	if len(s.rpo) > leRetainBlocks {
		return
	}
	s.u = nil
	clear(s.rpo)
	clear(s.items)
	clear(s.edges)
	clear(s.phis)
	clear(s.ops)
	clear(s.fwd)
	leFree.Lock()
	leFree.list = append(leFree.list, s)
	leFree.Unlock()
}

// grown returns buf with length n, reallocating only when it is too
// small; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// LoadElim forwards frame locals to their loads across the whole unit.
func LoadElim(u *Unit) {
	if u.Entry == nil {
		return
	}
	s := getLEState()
	defer s.release()
	s.u = u
	s.order()
	if !s.scan() {
		return
	}
	s.solve()
	if !s.classify() {
		return
	}
	s.forward()
	s.settlePhis()
}

// order fills rpo and pos with the blocks reachable from the entry in
// reverse post-order.
func (s *leState) order() {
	s.pos = grown(s.pos, s.u.nextBlock)
	for i := range s.pos {
		s.pos[i] = -1
	}
	s.rpo = s.rpo[:0]
	s.visit(s.u.Entry)
	for i, j := 0, len(s.rpo)-1; i < j; i, j = i+1, j-1 {
		s.rpo[i], s.rpo[j] = s.rpo[j], s.rpo[i]
	}
	for i, b := range s.rpo {
		s.pos[b.ID] = int32(i)
	}
}

func (s *leState) visit(b *Block) {
	if s.pos[b.ID] != -1 {
		return
	}
	s.pos[b.ID] = 0
	for _, in := range b.Instrs {
		if in.dead {
			continue
		}
		if in.Taken != nil {
			s.visit(in.Taken)
		}
		if in.Next != nil {
			s.visit(in.Next)
		}
		for _, t := range in.Table {
			s.visit(t)
		}
	}
	s.rpo = append(s.rpo, b)
}

// slotOf returns the dense index of a frame slot, -1 when the unit
// never loads it.
func (s *leState) slotOf(slot int64) int32 {
	if slot < 0 || slot >= int64(len(s.slotIdx)) {
		return -1
	}
	return s.slotIdx[slot]
}

// scan numbers the slots the unit loads and lists, per block and in
// instruction order, the stores, kills, loads and edges that concern
// them. It reports whether the unit loads anything at all.
func (s *leState) scan() bool {
	s.slotIdx = s.slotIdx[:0]
	s.nS = 0
	for _, b := range s.rpo {
		for _, in := range b.Instrs {
			if in.dead || in.Op != LdLoc {
				continue
			}
			for int64(len(s.slotIdx)) <= in.I64 {
				s.slotIdx = append(s.slotIdx, -1)
			}
			if s.slotIdx[in.I64] < 0 {
				s.slotIdx[in.I64] = int32(s.nS)
				s.nS++
			}
		}
	}
	if s.nS == 0 {
		return false
	}
	s.nW = (s.nS + 63) / 64

	nB := len(s.rpo)
	s.items, s.edges = s.items[:0], s.edges[:0]
	s.itemsOf = grown(s.itemsOf, nB+1)
	s.noParams = grown(s.noParams, nB)
	clear(s.noParams)
	s.noParams[0] = true // the entry is entered from outside the unit too
	for bi, b := range s.rpo {
		s.itemsOf[bi] = int32(len(s.items))
		for at, in := range b.Instrs {
			if in.dead {
				continue
			}
			kind, slot := leEdgeOut, int32(-1)
			if in.Op == LdLoc {
				kind, slot = leLoad, s.slotOf(in.I64)
			} else if eff, fs := in.SlotEffect(); eff != SlotNone {
				kind, slot = leKill, s.slotOf(fs)
				// A load of a stored Uninit yields Null, not the value stored.
				if eff == SlotStore && !in.Args[0].Type.Maybe(types.TUninit) {
					kind = leStore
				}
			}
			if slot >= 0 {
				s.items = append(s.items, leItem{in: in, at: int32(at), x: slot, kind: kind})
			}
			if in.Taken != nil {
				s.addEdge(in, bi, at, in.Taken, true)
			}
			if in.Next != nil {
				s.addEdge(in, bi, at, in.Next, false)
			}
			for _, t := range in.Table {
				// A jump table names blocks, not argument lists.
				s.noParams[s.pos[t.ID]] = true
			}
		}
	}
	s.itemsOf[nB] = int32(len(s.items))

	// Group the edges by target, keeping their order.
	s.inOf = grown(s.inOf, nB+1)
	clear(s.inOf)
	for i := range s.edges {
		s.inOf[s.edges[i].to]++
	}
	for bi := 0; bi < nB; bi++ {
		s.inOf[bi+1] += s.inOf[bi]
	}
	s.inEdges = grown(s.inEdges, len(s.edges))
	for i := len(s.edges) - 1; i >= 0; i-- {
		to := s.edges[i].to
		s.inOf[to]--
		s.inEdges[s.inOf[to]] = int32(i)
	}
	return true
}

func (s *leState) addEdge(in *Instr, from, at int, target *Block, taken bool) {
	e := leEdge{in: in, from: int32(from), to: s.pos[target.ID], item: int32(len(s.items)), taken: taken}
	// Parameters are matched to arguments by position: an edge that does
	// not feed the parameters its target already has cannot take more.
	if len(*e.args()) != len(target.Params) {
		s.noParams[e.to] = true
	}
	s.items = append(s.items, leItem{in: in, at: int32(at), x: int32(len(s.edges)), kind: leEdgeOut})
	s.edges = append(s.edges, e)
}

// in returns block bi's availability set.
func (s *leState) in(bi int32) []uint64 { return s.avail[int(bi)*s.nW : (int(bi)+1)*s.nW] }

// solve computes, as the greatest fixpoint, the slots whose value is
// known on entry to each block: those known at the leaving point of
// every edge into it.
func (s *leState) solve() {
	nB := len(s.rpo)
	s.avail = grown(s.avail, nB*s.nW)
	for i := range s.avail {
		s.avail[i] = ^uint64(0)
	}
	for bi, none := range s.noParams {
		if none {
			clear(s.in(int32(bi)))
		}
	}
	s.cur = grown(s.cur, s.nW)
	for changed := true; changed; {
		changed = false
		for bi := range s.rpo {
			copy(s.cur, s.in(int32(bi)))
			for _, it := range s.items[s.itemsOf[bi]:s.itemsOf[bi+1]] {
				switch it.kind {
				case leKill:
					s.cur[it.x>>6] &^= 1 << (it.x & 63)
				case leEdgeOut:
					to := s.edges[it.x].to
					for w, have := range s.in(to) {
						if meet := have & s.cur[w]; meet != have {
							s.in(to)[w] = meet
							// A block further down is walked later in this
							// very sweep.
							changed = changed || int(to) <= bi
						}
					}
				default: // a store or a load: known from here on
					s.cur[it.x>>6] |= 1 << (it.x & 63)
				}
			}
		}
	}
}

// classify decides for every load whether it defines its slot's value
// or is replaced by it, and reports whether any is replaced.
func (s *leState) classify() bool {
	any := false
	for bi := range s.rpo {
		copy(s.cur, s.in(int32(bi)))
		items := s.items[s.itemsOf[bi]:s.itemsOf[bi+1]]
		for i := range items {
			it := &items[i]
			if it.kind == leEdgeOut {
				continue
			}
			word, bit := &s.cur[it.x>>6], uint64(1)<<(it.x&63)
			switch {
			case it.kind == leKill:
				*word &^= bit
			case it.kind == leLoad && *word&bit != 0:
				it.kind, any = leLoadFwd, true
			case it.kind == leLoad:
				it.kind = leLoadDef
				*word |= bit
			default:
				*word |= bit
			}
		}
	}
	return any
}

// forward replaces the loads of known values, creating the phis their
// values need on the way.
func (s *leState) forward() {
	s.base = s.u.nextTmp
	s.phiOf = grown(s.phiOf, len(s.rpo))
	for i := range s.phiOf {
		s.phiOf[i] = -1
	}
	s.phis, s.ops, s.fwd = s.phis[:0], s.ops[:0], s.fwd[:0]
	for bi, b := range s.rpo {
		for i := s.itemsOf[bi]; i < s.itemsOf[bi+1]; i++ {
			it := s.items[i]
			if it.kind != leLoadFwd {
				continue
			}
			in := it.in
			in.Op = AssertType
			in.Args = []*SSATmp{s.valueBefore(int32(bi), i, it.x)}
			in.I64 = 0
			s.fwd = append(s.fwd, in)
			if next := int(it.at) + 1; next < len(b.Instrs) {
				if chk := b.Instrs[next]; chk.Op == CheckType && chk.Args[0] == in.Dst {
					s.u.Opt.GuardLoadsShared++
				}
			}
		}
	}
	s.u.Opt.LoadsForwarded += len(s.fwd)
}

// valueBefore returns the value of slot before item end of block bi.
func (s *leState) valueBefore(bi, end, slot int32) *SSATmp {
	for i := end - 1; i >= s.itemsOf[bi]; i-- {
		it := &s.items[i]
		if it.x != slot {
			continue
		}
		switch it.kind {
		case leStore:
			return it.in.Args[0]
		case leLoadDef:
			return it.in.Dst
		}
	}
	return s.valueOnEntry(bi, slot)
}

// valueOnEntry returns the value of slot on entry to block bi (solve
// found it known there): what the one edge into the block brings, or
// the block's phi over what its edges bring. A new phi is listed before
// its operands are looked up, which is what ends the walk in a loop.
func (s *leState) valueOnEntry(bi, slot int32) *SSATmp {
	in := s.inEdges[s.inOf[bi]:s.inOf[bi+1]]
	if len(in) == 1 {
		e := &s.edges[in[0]]
		return s.valueBefore(e.from, e.item, slot)
	}
	for pi := s.phiOf[bi]; pi >= 0; pi = s.phis[pi].next {
		if s.phis[pi].slot == slot {
			return s.phis[pi].tmp
		}
	}
	p := s.u.NewTmp(types.TBottom)
	p.DefBlock = s.rpo[bi]
	ops := len(s.ops)
	s.phis = append(s.phis, lePhi{tmp: p, block: bi, slot: slot, ops: int32(ops), next: s.phiOf[bi]})
	s.phiOf[bi] = int32(len(s.phis) - 1)
	for range in {
		s.ops = append(s.ops, nil)
	}
	for k, ei := range in {
		e := &s.edges[ei]
		s.ops[ops+k] = s.valueBefore(e.from, e.item, slot)
	}
	return p
}

// resolved follows a value through the phis found to be trivial.
func (s *leState) resolved(v *SSATmp) *SSATmp {
	for v.ID >= s.base && s.phis[v.ID-s.base].repl != nil {
		v = s.phis[v.ID-s.base].repl
	}
	return v
}

// root is the value v names, whatever type it names it under:
// AssertTypes — the replaced loads among them — and trivial phis are
// followed to their source. Two stores put the same value into a slot
// when their roots are equal, whatever each knew of its type.
func (s *leState) root(v *SSATmp) *SSATmp {
	for {
		switch {
		case v.Def != nil && v.Def.Op == AssertType:
			v = v.Def.Args[0]
		case v.ID >= s.base && s.phis[v.ID-s.base].repl != nil:
			v = s.phis[v.ID-s.base].repl
		default:
			return v
		}
	}
}

// settlePhis removes the phis whose operands are all one value (or the
// phi itself), makes block parameters of the others, typed as the union
// of what they are passed, and gives every replaced load its value.
func (s *leState) settlePhis() {
	operands := func(ph *lePhi) []*SSATmp {
		n := s.inOf[ph.block+1] - s.inOf[ph.block]
		return s.ops[ph.ops : ph.ops+n]
	}
	for changed := true; changed; {
		changed = false
		for i := range s.phis {
			ph := &s.phis[i]
			if ph.repl != nil {
				continue
			}
			// only is the one value the operands name; as is the name to
			// use for it: the operands' own when they agree on it (it
			// carries the type they stored it under), else the root.
			var only, as *SSATmp
			trivial := true
			for _, op := range operands(ph) {
				op = s.resolved(op)
				switch r := s.root(op); {
				case r == ph.tmp:
				case only == nil:
					only, as = r, op
				case r != only:
					trivial = false
				case op != as:
					as = only
				}
			}
			if trivial {
				ph.repl, changed = as, true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range s.phis {
			ph := &s.phis[i]
			if ph.repl != nil {
				continue
			}
			t := ph.tmp.Type
			for _, op := range operands(ph) {
				t = t.Union(s.resolved(op).Type)
			}
			if t != ph.tmp.Type {
				ph.tmp.Type, changed = t, true
			}
		}
	}
	for i := range s.phis {
		ph := &s.phis[i]
		if ph.repl != nil {
			continue
		}
		b := s.rpo[ph.block]
		b.Params = append(b.Params, ph.tmp)
		for k, ei := range s.inEdges[s.inOf[ph.block]:s.inOf[ph.block+1]] {
			args := s.edges[ei].args()
			*args = append(*args, s.resolved(s.ops[int(ph.ops)+k]))
		}
		s.u.Opt.PhisInserted++
	}
	for _, in := range s.fwd {
		v := s.resolved(in.Args[0])
		in.Args[0] = v
		// The type the builder's flow proved of the load holds of the
		// value too: it is what the slot holds here.
		t := v.Type
		if !t.SubtypeOf(in.Dst.Type) {
			t = refine(t, in.Dst.Type)
		}
		in.TypeParam, in.Dst.Type = t, t
	}
}
