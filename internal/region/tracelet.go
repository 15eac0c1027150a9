package region

import (
	"slices"
	"sync"

	"repro/internal/hhbc"
	"repro/internal/slab"
	"repro/internal/types"
)

// TypeSource supplies entry types for VM locations and the shape facts
// of property reads. In live and profiling modes it inspects the live
// frame; the profile-guided selector replays recorded preconditions.
type TypeSource interface {
	// LocalType returns the entry type of a local (TCell if unknown).
	LocalType(slot int) types.Type
	// StackType returns the entry type of an eval-stack slot indexed
	// from the bottom.
	StackType(depth int) types.Type
	// PropReadType returns the result type of the property read at
	// (fn, pc) when the site's shape profile is monomorphic and the
	// shape records a stable slot kind, TInitCell otherwise (DESIGN.md
	// §14). The selector uses it to keep tracing through property reads
	// whose types would otherwise be unknown.
	PropReadType(fnID, pc int, name string) types.Type
}

// SelectMode controls tracelet termination rules.
type SelectMode int

const (
	// ModeLive: gen-1 tracelets — maximal single-entry blocks ended
	// at branches or when an unknown type is consumed.
	ModeLive SelectMode = iota
	// ModeProfiling additionally breaks at all jumps and after
	// instructions that may side-exit (calls), so profile counters
	// give exact basic-block frequencies (Section 4.1).
	ModeProfiling
)

// DefaultMaxInstrs bounds tracelet length.
const DefaultMaxInstrs = 120

// origin names the pristine entry location a symbolic stack value
// came from, so stronger constraints can upgrade its guard; !ok for a
// value the tracelet computed itself.
type origin struct {
	Loc
	ok bool
}

// localState is what the selector knows of one local: its type (TCell
// until known), and whether the tracelet has stored to it, after which
// its entry type can no longer be guarded. The zero value knows
// nothing.
type localState struct {
	t       types.Type
	known   bool
	written bool
}

// selector walks bytecode computing type flow and guard needs. Its
// lists are scratch: Select draws a selector from selectors and
// release hands it back emptied, so a selection allocates only the
// Block and the slices it keeps.
type selector struct {
	unit *hhbc.Unit
	fn   *hhbc.Func
	src  TypeSource
	mode SelectMode
	max  int

	locals []localState // by slot
	// The symbolic eval stack: types, and in parallel their origins.
	stack   []types.Type
	origins []origin
	guards  []Guard // one per location, in the order first guarded
	succs   []int
}

var selectors = sync.Pool{New: func() any { return new(selector) }}

// release empties s and hands it back to selectors. Every local goes
// back to the zero localState, which the next selection relies on.
func (s *selector) release() {
	clear(s.locals)
	*s = selector{locals: s.locals[:0], stack: s.stack[:0], origins: s.origins[:0],
		guards: s.guards[:0], succs: s.succs[:0]}
	selectors.Put(s)
}

// blockMem is a Block with room for the successors most blocks have,
// so that both are one allocation.
type blockMem struct {
	b     Block
	succs [2]int
}

// Select forms a tracelet starting at pc with the given entry stack
// depth. It returns the block (never nil; a block always contains at
// least one instruction).
func Select(u *hhbc.Unit, fn *hhbc.Func, pc int, entryDepth int, src TypeSource, mode SelectMode, maxInstrs int) *Block {
	if maxInstrs <= 0 {
		maxInstrs = DefaultMaxInstrs
	}
	s := selectors.Get().(*selector)
	defer s.release()
	s.unit, s.fn, s.src, s.mode, s.max = u, fn, src, mode, maxInstrs
	s.locals = slab.Grow(s.locals, fn.NumLocals)
	m := &blockMem{b: Block{
		Func: fn, Start: pc, EntryStackDepth: entryDepth,
		ProfCounter: -1,
	}}
	b := &m.b
	if entryDepth > 0 {
		b.EntryStackTypes = make([]types.Type, entryDepth)
	}
	for d := 0; d < entryDepth; d++ {
		b.EntryStackTypes[d] = src.StackType(d)
		s.stack = append(s.stack, types.TInitCell)
		s.origins = append(s.origins, origin{Loc{LocStack, d}, true})
	}

	cur := pc
	for cur-pc < s.max {
		in := fn.Instrs[cur]
		if !s.step(in, cur) {
			// The instruction needs information this tracelet cannot
			// provide: end before it; it starts the next translation.
			s.succs = append(s.succs[:0], cur)
			break
		}
		cur++
		b.NumInstrs = cur - pc
		// A branch or an exit ends the tracelet: its successors are the
		// distinct targets, then the fall-through.
		branches := false
		fall := fn.ForEachSuccessor(cur-1, func(t int) {
			branches = true
			if !slices.Contains(s.succs, t) {
				s.succs = append(s.succs, t)
			}
		})
		if branches || !fall {
			if fall {
				s.succs = append(s.succs, cur)
			}
			break
		}
		if s.mode == ModeProfiling && breaksProfilingBlock(in.Op) {
			s.succs = append(s.succs[:0], cur)
			break
		}
	}
	if b.NumInstrs == 0 {
		// Force progress: include one instruction generically.
		b.NumInstrs = 1
		if !fn.Instrs[pc].Op.IsUnconditionalExit() {
			s.succs = append(s.succs[:0], pc+1)
		}
	}
	if len(s.succs) == 0 && cur-pc >= s.max {
		s.succs = append(s.succs, cur)
	}
	switch n := len(s.succs); {
	case n > len(m.succs):
		b.Succs = slices.Clone(s.succs)
	case n > 0:
		b.Succs = m.succs[:n:n]
		copy(b.Succs, s.succs)
	}
	if len(s.guards) > 0 {
		b.Preconds = slices.Clone(s.guards)
		sortGuards(b.Preconds)
	}
	return b
}

func sortGuards(gs []Guard) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && guardLess(gs[j], gs[j-1]); j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

func guardLess(a, b Guard) bool {
	if a.Loc.Kind != b.Loc.Kind {
		return a.Loc.Kind < b.Loc.Kind
	}
	return a.Loc.Slot < b.Loc.Slot
}

// breaksProfilingBlock reports ops after which profiling translations
// end (rules 1-2 in Section 4.1).
func breaksProfilingBlock(op hhbc.Op) bool {
	switch op {
	case hhbc.OpFCallD, hhbc.OpFCallObjMethodD, hhbc.OpFCallBuiltin,
		hhbc.OpNewObjD, hhbc.OpThrow, hhbc.OpVerifyParamType:
		return true
	}
	return false
}

// localType returns the current known type of a local (TCell for no
// local).
func (s *selector) localType(slot int) types.Type {
	if slot >= 0 && s.locals[slot].known {
		return s.locals[slot].t
	}
	return types.TCell
}

// setLocal records t as the known type of a local.
func (s *selector) setLocal(slot int, t types.Type) {
	s.locals[slot].t, s.locals[slot].known = t, true
}

// guard returns the guard on loc, nil if there is none.
func (s *selector) guard(loc Loc) *Guard {
	for i := range s.guards {
		if s.guards[i].Loc == loc {
			return &s.guards[i]
		}
	}
	return nil
}

// guardLocal tries to establish constraint con on a local's entry
// type. Returns the resulting type and whether the constraint is now
// satisfied.
func (s *selector) guardLocal(slot int, con TypeConstraint) (types.Type, bool) {
	cur := s.localType(slot)
	if con.Satisfied(cur) {
		s.upgradeGuard(Loc{LocLocal, slot}, con)
		return cur, true
	}
	if s.locals[slot].written {
		return cur, false
	}
	t := s.src.LocalType(slot)
	if !con.Satisfied(t) {
		return cur, false
	}
	s.setGuard(Loc{LocLocal, slot}, t, con)
	s.setLocal(slot, t)
	return t, true
}

// needVal tries to establish con on the stack value at index i,
// guarding (or upgrading the guard of) its origin when possible.
func (s *selector) needVal(i int, con TypeConstraint) bool {
	o := s.origins[i]
	if con.Satisfied(s.stack[i]) {
		if o.ok {
			s.upgradeGuard(o.Loc, con)
		}
		return true
	}
	if !o.ok {
		return false
	}
	var t types.Type
	if o.Kind == LocLocal {
		if s.locals[o.Slot].written {
			return false
		}
		t = s.src.LocalType(o.Slot)
	} else {
		t = s.src.StackType(o.Slot)
	}
	if !con.Satisfied(t) {
		return false
	}
	s.setGuard(o.Loc, t, con)
	s.stack[i] = t
	if o.Kind == LocLocal {
		s.setLocal(o.Slot, t)
	}
	return true
}

func (s *selector) setGuard(loc Loc, t types.Type, con TypeConstraint) {
	if g := s.guard(loc); g != nil {
		g.Type = g.Type.Intersect(t)
		if g.Type.IsBottom() {
			g.Type = t
		}
		g.Constraint = g.Constraint.Stronger(con)
		return
	}
	s.guards = append(s.guards, Guard{Loc: loc, Type: t, Constraint: con})
}

func (s *selector) upgradeGuard(loc Loc, con TypeConstraint) {
	if g := s.guard(loc); g != nil {
		g.Constraint = g.Constraint.Stronger(con)
	}
}

// widenObjGuard widens the entry guard of the property-access object
// at stack index i to the bare Obj kind (DESIGN.md §14): the shape
// guard or inline cache in the translation body subsumes the class, so
// pinning the class here would split identical-layout receivers across
// chained translations for nothing. Guards already strengthened to
// ConSpecialized by another consumer (method dispatch) are left alone.
func (s *selector) widenObjGuard(i int) {
	o := s.origins[i]
	if !o.ok {
		return
	}
	g := s.guard(o.Loc)
	if g == nil || g.Constraint > ConSpecific || !g.Type.SubtypeOf(types.TObj) {
		return
	}
	g.Type = g.Type.Unspecialize()
	if o.Kind == LocLocal {
		s.setLocal(o.Slot, s.stack[i].Unspecialize())
	}
}
