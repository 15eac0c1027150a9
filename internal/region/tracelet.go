package region

import (
	"repro/internal/hhbc"
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

// selector walks bytecode computing type flow and guard needs.
type selector struct {
	unit *hhbc.Unit
	fn   *hhbc.Func
	src  TypeSource
	mode SelectMode
	max  int

	locals  map[int]types.Type
	written []bool // locals the tracelet has stored to: no longer guardable
	// The symbolic eval stack: types, and in parallel their origins.
	stack   []types.Type
	origins []origin

	guards map[Loc]*Guard
	block  *Block
}

// Select forms a tracelet starting at pc with the given entry stack
// depth. It returns the block (never nil; a block always contains at
// least one instruction).
func Select(u *hhbc.Unit, fn *hhbc.Func, pc int, entryDepth int, src TypeSource, mode SelectMode, maxInstrs int) *Block {
	if maxInstrs <= 0 {
		maxInstrs = DefaultMaxInstrs
	}
	s := &selector{
		unit: u, fn: fn, src: src, mode: mode, max: maxInstrs,
		locals:  map[int]types.Type{},
		written: make([]bool, fn.NumLocals),
		guards:  map[Loc]*Guard{},
	}
	b := &Block{
		Func: fn, Start: pc, EntryStackDepth: entryDepth,
		ProfCounter: -1,
	}
	s.block = b
	for d := 0; d < entryDepth; d++ {
		b.EntryStackTypes = append(b.EntryStackTypes, src.StackType(d))
		s.stack = append(s.stack, types.TInitCell)
		s.origins = append(s.origins, origin{Loc{LocStack, d}, true})
	}

	cur := pc
	for cur-pc < s.max {
		in := fn.Instrs[cur]
		if !s.step(in, cur) {
			// The instruction needs information this tracelet cannot
			// provide: end before it; it starts the next translation.
			b.Succs = []int{cur}
			break
		}
		cur++
		b.NumInstrs = cur - pc
		// A branch or an exit ends the tracelet: its successors are the
		// distinct targets, then the fall-through.
		branches := false
		fall := fn.ForEachSuccessor(cur-1, func(t int) {
			branches = true
			for _, seen := range b.Succs {
				if seen == t {
					return
				}
			}
			b.Succs = append(b.Succs, t)
		})
		if branches || !fall {
			if fall {
				b.Succs = append(b.Succs, cur)
			}
			break
		}
		if s.mode == ModeProfiling && breaksProfilingBlock(in.Op) {
			b.Succs = []int{cur}
			break
		}
	}
	if b.NumInstrs == 0 {
		// Force progress: include one instruction generically.
		b.NumInstrs = 1
		in := fn.Instrs[pc]
		if !in.Op.IsUnconditionalExit() {
			b.Succs = []int{pc + 1}
		}
	}
	if b.NumInstrs > 0 && b.Succs == nil && cur-pc >= s.max {
		b.Succs = []int{cur}
	}

	for _, g := range s.guards {
		b.Preconds = append(b.Preconds, *g)
	}
	sortGuards(b.Preconds)
	b.PostLocals = s.locals
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

// localType returns the current known type of a local.
func (s *selector) localType(slot int) types.Type {
	if t, ok := s.locals[slot]; ok {
		return t
	}
	return types.TCell
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
	if s.written[slot] {
		return cur, false
	}
	t := s.src.LocalType(slot)
	if !con.Satisfied(t) {
		return cur, false
	}
	s.setGuard(Loc{LocLocal, slot}, t, con)
	s.locals[slot] = t
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
		if s.written[o.Slot] {
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
		s.locals[o.Slot] = t
	}
	return true
}

func (s *selector) setGuard(loc Loc, t types.Type, con TypeConstraint) {
	if g, ok := s.guards[loc]; ok {
		g.Type = g.Type.Intersect(t)
		if g.Type.IsBottom() {
			g.Type = t
		}
		g.Constraint = g.Constraint.Stronger(con)
		return
	}
	s.guards[loc] = &Guard{Loc: loc, Type: t, Constraint: con}
}

func (s *selector) upgradeGuard(loc Loc, con TypeConstraint) {
	if g, ok := s.guards[loc]; ok {
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
	g, ok := s.guards[o.Loc]
	if !ok || g.Constraint > ConSpecific || !g.Type.SubtypeOf(types.TObj) {
		return
	}
	g.Type = g.Type.Unspecialize()
	if o.Kind == LocLocal {
		s.locals[o.Slot] = s.stack[i].Unspecialize()
	}
}
