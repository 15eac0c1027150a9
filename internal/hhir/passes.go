package hhir

import (
	"maps"
	"math"
	"slices"

	"repro/internal/types"
)

// PassConfig toggles individual optimizations (the Figure 10
// ablations flip these).
type PassConfig struct {
	Simplify bool
	DCE      bool
	GVN      bool
	LoadElim bool
	RCE      bool
}

// AllPasses enables everything.
var AllPasses = PassConfig{Simplify: true, DCE: true, GVN: true, LoadElim: true, RCE: true}

// ProfilingPasses is the reduced pipeline for short-lived profiling
// code (Section 4.1 rule 5: skip the most expensive optimizations).
var ProfilingPasses = PassConfig{Simplify: true, DCE: true}

// Optimize runs the configured pipeline.
func Optimize(u *Unit, cfg PassConfig) {
	if cfg.Simplify {
		Simplify(u)
	}
	if cfg.LoadElim {
		LoadElim(u)
	}
	if cfg.GVN {
		GVN(u)
	}
	ShapeGuardElim(u)
	if cfg.Simplify {
		Simplify(u)
	}
	if cfg.RCE {
		RCE(u)
	}
	if cfg.DCE {
		DCE(u)
	}
	PruneUnreachable(u)
}

// ---------- Simplification & constant folding ----------

// Simplify folds constants, applies algebraic identities, and fuses
// branches on constants.
func Simplify(u *Unit) {
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			simplifyInstr(u, in)
		}
	}
}

func constOf(t *SSATmp) (*Instr, bool) {
	if t == nil || t.Def == nil {
		return nil, false
	}
	switch t.Def.Op {
	case DefConstInt, DefConstDbl, DefConstBool, DefConstNull, DefConstStr:
		return t.Def, true
	}
	return nil, false
}

// rewriteConstInt turns in into a DefConstInt in place.
func rewriteConst(in *Instr, op Opcode, v int64, s string, t types.Type) {
	in.Op = op
	in.I64 = v
	in.Str = s
	in.Args = nil
	in.Exit = nil
	in.TypeParam = types.TBottom
	in.Dst.Type = t
}

func simplifyInstr(u *Unit, in *Instr) {
	switch in.Op {
	case AddInt, SubInt, MulInt:
		a, aok := constOf(in.Args[0])
		c, cok := constOf(in.Args[1])
		if aok && cok {
			var v int64
			switch in.Op {
			case AddInt:
				v = a.I64 + c.I64
			case SubInt:
				v = a.I64 - c.I64
			case MulInt:
				v = a.I64 * c.I64
			}
			rewriteConst(in, DefConstInt, v, "", types.TInt)
			return
		}
		// Algebraic identities: x+0, x-0, x*1 -> copy; x*0 -> 0.
		if cok {
			switch {
			case c.I64 == 0 && (in.Op == AddInt || in.Op == SubInt),
				c.I64 == 1 && in.Op == MulInt:
				in.Op = AssertType
				in.TypeParam = in.Args[0].Type
				in.Dst.Type = in.Args[0].Type
				in.Args = in.Args[:1]
				return
			case c.I64 == 0 && in.Op == MulInt:
				rewriteConst(in, DefConstInt, 0, "", types.TInt)
				return
			}
		}
	case AddDbl, SubDbl, MulDbl, DivDbl:
		a, aok := constOf(in.Args[0])
		c, cok := constOf(in.Args[1])
		if aok && cok {
			x := math.Float64frombits(uint64(a.I64))
			y := math.Float64frombits(uint64(c.I64))
			var v float64
			switch in.Op {
			case AddDbl:
				v = x + y
			case SubDbl:
				v = x - y
			case MulDbl:
				v = x * y
			case DivDbl:
				if y == 0 {
					return // keep the runtime error path
				}
				v = x / y
			}
			rewriteConst(in, DefConstDbl, int64(math.Float64bits(v)), "", types.TDbl)
		}
	case NegInt:
		if a, ok := constOf(in.Args[0]); ok {
			rewriteConst(in, DefConstInt, -a.I64, "", types.TInt)
		}
	case CmpInt:
		a, aok := constOf(in.Args[0])
		c, cok := constOf(in.Args[1])
		if aok && cok {
			rewriteConst(in, DefConstBool, boolI64(cmpHolds(in.I64, a.I64, c.I64)), "", types.TBool)
		}
	case ConvToBool:
		arg := in.Args[0]
		if c, ok := constOf(arg); ok {
			var v bool
			switch c.Op {
			case DefConstInt:
				v = c.I64 != 0
			case DefConstBool:
				v = c.I64 != 0
			case DefConstDbl:
				v = math.Float64frombits(uint64(c.I64)) != 0
			case DefConstNull:
				v = false
			case DefConstStr:
				v = c.Str != "" && c.Str != "0"
			}
			rewriteConst(in, DefConstBool, boolI64(v), "", types.TBool)
			return
		}
		if arg.Type.SubtypeOf(types.TBool) {
			in.Op = AssertType
			in.TypeParam = types.TBool
			in.Dst.Type = types.TBool
		}
	case ConvToInt:
		if c, ok := constOf(in.Args[0]); ok && c.Op == DefConstInt {
			rewriteConst(in, DefConstInt, c.I64, "", types.TInt)
		}
	case ConvToDbl:
		if c, ok := constOf(in.Args[0]); ok {
			switch c.Op {
			case DefConstInt:
				rewriteConst(in, DefConstDbl, int64(math.Float64bits(float64(c.I64))), "", types.TDbl)
			case DefConstDbl:
				rewriteConst(in, DefConstDbl, c.I64, "", types.TDbl)
			}
		}
	case ConcatStr:
		folded := ""
		for _, a := range in.Args {
			c, ok := constOf(a)
			if !ok || c.Op != DefConstStr {
				return
			}
			folded += c.Str
		}
		rewriteConst(in, DefConstStr, 0, folded, types.TStr)
	case Branch:
		// Branch fusion: constant condition becomes a Jmp.
		if c, ok := constOf(in.Args[0]); ok {
			if c.I64 != 0 {
				in.Next, in.NextArgs = in.Taken, in.TakenArgs
			}
			in.Op = Jmp
			in.Args = nil
			in.Taken, in.TakenArgs = nil, nil
		}
	case CheckType:
		// A value already of the checked type needs no check.
		if in.Args[0].Type.SubtypeOf(in.TypeParam) {
			in.Op = AssertType
			in.Taken, in.TakenArgs, in.Exit = nil, nil, nil
		}
	}
}

func boolI64(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

func cmpHolds(cond, a, b int64) bool {
	switch cond {
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	case CondEQ:
		return a == b
	default:
		return a != b
	}
}

// resolveCopies follows AssertType chains so uses point at the
// original value (copy propagation).
func resolveCopies(u *Unit) {
	resolve := func(t *SSATmp) *SSATmp {
		for t != nil && t.Def != nil && t.Def.Op == AssertType && !t.Def.dead {
			src := t.Def.Args[0]
			// Keep the refinement only if it genuinely narrows.
			if !src.Type.SubtypeOf(t.Type) {
				break
			}
			t = src
		}
		return t
	}
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
			for i, a := range in.NextArgs {
				in.NextArgs[i] = resolve(a)
			}
			for i, a := range in.TakenArgs {
				in.TakenArgs[i] = resolve(a)
			}
			if in.Exit != nil {
				for i, a := range in.Exit.Stack {
					in.Exit.Stack[i] = resolve(a)
				}
				for ic := in.Exit.Inline; ic != nil; ic = ic.Parent {
					if ic.This != nil {
						ic.This = resolve(ic.This)
					}
					for i, a := range ic.CallerStack {
						ic.CallerStack[i] = resolve(a)
					}
				}
			}
		}
	}
}

// ---------- Dead code elimination ----------

// DCE removes pure instructions whose results are unused and strips
// vacuous AssertTypes.
func DCE(u *Unit) {
	resolveCopies(u)
	used := map[*SSATmp]bool{}
	mark := func(t *SSATmp) {
		if t != nil {
			used[t] = true
		}
	}
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			if in.Op.IsPure() || in.Op == LdLoc {
				continue // uses counted only if they survive
			}
			for _, a := range in.Args {
				mark(a)
			}
			for _, a := range in.NextArgs {
				mark(a)
			}
			for _, a := range in.TakenArgs {
				mark(a)
			}
			if in.Exit != nil {
				for _, a := range in.Exit.Stack {
					mark(a)
				}
				for ic := in.Exit.Inline; ic != nil; ic = ic.Parent {
					mark(ic.This)
					for _, a := range ic.CallerStack {
						mark(a)
					}
				}
			}
		}
	}
	// Iterate to a fixpoint: pure instrs keep their args alive only
	// while live themselves.
	changed := true
	for changed {
		changed = false
		for _, b := range u.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.dead || !(in.Op.IsPure() || in.Op == LdLoc) {
					continue
				}
				if in.Dst != nil && used[in.Dst] {
					for _, a := range in.Args {
						if !used[a] {
							used[a] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for _, b := range u.Blocks {
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			if (in.Op.IsPure() || in.Op == LdLoc) && in.Dst != nil && !used[in.Dst] {
				in.dead = true
			}
		}
	}
	commitDead(u)
}

func commitDead(u *Unit) {
	for _, b := range u.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !in.dead {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
}

// PruneUnreachable drops blocks not reachable from the entry.
func PruneUnreachable(u *Unit) {
	if u.Entry == nil {
		return
	}
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	walk(u.Entry)
	out := u.Blocks[:0]
	for _, b := range u.Blocks {
		if seen[b] {
			out = append(out, b)
		}
	}
	u.Blocks = out
	u.RecomputePreds()
}

// ---------- Global value numbering ----------

// GVN value-numbers pure instructions within dominator scopes; the
// region shape (a DAG plus loop back-edges only to chain heads) makes
// a simple RPO single-pass with per-block scoping sufficient and
// sound: values are reused only when the defining block dominates the
// user, approximated by "definition appears in an RPO predecessor
// that reaches all paths" — we restrict reuse to the same block or
// the entry block, which is trivially dominating.
func GVN(u *Unit) {
	resolveCopies(u)
	type key struct {
		op     Opcode
		a0, a1 *SSATmp
		i64    int64
		str    string
	}
	// resolve follows AssertType copies created earlier in this same
	// pass so later instructions key on canonical values.
	var resolve func(t *SSATmp) *SSATmp
	resolve = func(t *SSATmp) *SSATmp {
		for t != nil && t.Def != nil && t.Def.Op == AssertType && !t.Def.dead &&
			len(t.Def.Args) == 1 && t.Def.Args[0].Type.SubtypeOf(t.Type) {
			t = t.Def.Args[0]
		}
		return t
	}
	mk := func(in *Instr) (key, bool) {
		if !in.Op.IsPure() || in.Dst == nil {
			return key{}, false
		}
		k := key{op: in.Op, i64: in.I64, str: in.Str}
		if len(in.Args) > 0 {
			k.a0 = resolve(in.Args[0])
		}
		if len(in.Args) > 1 {
			k.a1 = resolve(in.Args[1])
		}
		if len(in.Args) > 2 {
			return key{}, false
		}
		return k, true
	}

	// Entry-block values are visible everywhere.
	global := map[key]*SSATmp{}
	apply := func(b *Block, scope map[key]*SSATmp) {
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			k, ok := mk(in)
			if !ok {
				continue
			}
			if prev, hit := scope[k]; hit {
				// Replace in with a copy.
				in.Op = AssertType
				in.TypeParam = prev.Type
				in.Args = []*SSATmp{prev}
				in.I64, in.Str = 0, ""
				continue
			}
			if prev, hit := global[k]; hit && b != u.Entry {
				in.Op = AssertType
				in.TypeParam = prev.Type
				in.Args = []*SSATmp{prev}
				in.I64, in.Str = 0, ""
				continue
			}
			scope[k] = in.Dst
			if b == u.Entry {
				global[k] = in.Dst
			}
		}
	}
	if u.Entry != nil {
		apply(u.Entry, map[key]*SSATmp{})
	}
	for _, b := range u.Blocks {
		if b == u.Entry {
			continue
		}
		apply(b, map[key]*SSATmp{})
	}
	resolveCopies(u)
}

// ---------- Redundant shape-guard elimination ----------

// ShapeGuardElim removes GuardShape instructions whose fact was
// already established by an identical guard on the same SSA value
// earlier in the block (or along a single-predecessor chain). Runs
// after GVN/LoadElim so repeated loads of the same local share one SSA
// value. Facts die where some object's layout may change: at a store of
// a property by name, and wherever guest code may run (MayReenter), a
// destructor included. StPropSlot itself keeps the layout — the builder
// emits it only for a value of the slot's kind (DESIGN.md §14) — but the
// value it overwrites is released like any other.
func ShapeGuardElim(u *Unit) {
	resolveCopies(u)
	isGuard := func(in *Instr) bool { return in.Op == GuardShape && !in.dead }
	if !slices.ContainsFunc(u.Blocks, func(b *Block) bool { return slices.ContainsFunc(b.Instrs, isGuard) }) {
		return // most units: nothing below is worth setting up
	}
	// Per block entered by one edge, the facts that edge carries; a nil
	// state is no facts.
	type state map[*SSATmp]int64
	inState := map[*Block]state{}
	for _, b := range u.RPO() {
		st := inState[b]
		snapshot := func(target *Block) {
			if target != nil && len(target.Preds) == 1 && len(st) > 0 {
				inState[target] = maps.Clone(st)
			}
		}
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			if !in.Op.IsTerminator() {
				snapshot(in.Taken)
			}
			switch {
			case in.Op == GuardShape:
				if id, ok := st[in.Args[0]]; ok && id == in.I64 {
					in.dead = true
				} else {
					if st == nil {
						st = state{}
					}
					st[in.Args[0]] = in.I64
				}
			case in.Op.has(fStoresProp) || in.MayReenter(u):
				st = nil
			}
		}
		if t := b.Terminator(); t != nil {
			snapshot(t.Taken)
			snapshot(t.Next)
		}
	}
	commitDead(u)
}
