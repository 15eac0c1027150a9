package machine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/mcode"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// OutcomeKind classifies how a translation finished.
type OutcomeKind int

const (
	// Returned: the guest function returned Value.
	Returned OutcomeKind = iota
	// SideExit: resume interpretation at BCOff (frame stack synced).
	SideExit
	// BindRequest: control wants to continue at bytecode BCOff —
	// the dispatcher may enter another translation or bind a new one.
	BindRequest
	// Threw: a guest error escaped; frame state synced at BCOff.
	Threw
	// Faulted: the translation itself failed — a panic inside JITed
	// code or an internal machine error, never a guest-level error.
	// Err is a *TransFault; BCOff is the pc the faulting translation
	// was entered at, where the VM re-executes in the interpreter.
	Faulted
)

// TransFault is the typed error produced when a translation panics or
// hits an internal machine error. The fault-containment layer
// (vm.runFrame) quarantines the faulting address and re-executes the
// region in the interpreter, so the request completes and the process
// survives — the JIT is an optimization, never a point of failure.
type TransFault struct {
	// FuncID / PC identify the faulting translation's entry.
	FuncID int
	PC     int
	// Reason describes the underlying panic or internal error.
	Reason string
}

func (f *TransFault) Error() string {
	return fmt.Sprintf("translation fault at func %d pc %d: %s", f.FuncID, f.PC, f.Reason)
}

// Outcome reports the result of executing one translation.
type Outcome struct {
	Kind  OutcomeKind
	Value runtime.Value
	BCOff int
	Err   error
	// Inline is non-nil when the exit happened inside inlined code:
	// the chain of materialized callee frames, innermost first. The
	// outermost entry's RetBCOff is a pc in the root function.
	Inline []InlineResume
	// GuardTrace counts failed in-code guards (diagnostics).
	GuardFails int
	// EntryPC is the bytecode pc at which the last-entered translation
	// began executing. With direct chaining Exec tail-transfers across
	// translations, so this is NOT necessarily the pc Exec was entered
	// at; the dispatcher's no-progress (livelock) check compares the
	// exit pc against it.
	EntryPC int
	// BindCode/BindInstr identify the smash site of a BindRequest (the
	// BindJmp instruction in the exiting translation); the dispatcher
	// smashes the site to the translation it picks so the next
	// transfer chains directly. BindCode is nil when the site cannot
	// be bound (unchainable code, inline exit).
	BindCode  *mcode.Code
	BindInstr int
}

// ChainTarget is a translation seen from the machine's chaining path:
// enough to tail-transfer into it without consulting the dispatcher.
// *jit.Translation implements it.
type ChainTarget interface {
	// ChainCode is the target's assembled code.
	ChainCode() *mcode.Code
	// ChainMatch re-checks the target's entry conditions (stack depth
	// and type preconditions) against the live frame, except the
	// preconditions from's exit already proved: from is the code a bind
	// request just left, nil for any other exit. guards is the number of
	// preconditions it checks (cost accounting).
	ChainMatch(fr *interp.Frame, from *mcode.Code) (guards int, ok bool)
	// ChainLink is the link {epoch, this target} that every smash site
	// bound to the target in that epoch shares; links are immutable
	// once published, so re-smashing a site allocates nothing.
	ChainLink(epoch uint64) *mcode.Link
}

// ChainStats counts direct-chaining activity. One instance is shared
// by every worker machine of a JIT (all fields atomic).
type ChainStats struct {
	// BindsSmashed counts smash-site writes (bind jumps and calls).
	BindsSmashed atomic.Uint64
	// ChainedJumps counts bind jumps taken through a smashed link,
	// never returning to the dispatcher.
	ChainedJumps atomic.Uint64
	// ChainedCalls counts guest calls entered through a bound callee
	// link (prologue translation reused without a Lookup).
	ChainedCalls atomic.Uint64
	// StaleLinks counts links skipped because their epoch no longer
	// matches the published translation-index version.
	StaleLinks atomic.Uint64
	// ChainMismatches counts links whose target's entry guards failed
	// against the live frame (fall back to the dispatch path).
	ChainMismatches atomic.Uint64
	// LinksSwept counts links cleared by the post-publish treadmill.
	LinksSwept atomic.Uint64
}

// ShapeStats counts shape-guard and property-IC activity. One
// instance is shared by every worker machine of a JIT (all fields
// atomic).
type ShapeStats struct {
	// Guards / GuardFails count GuardShape executions and failures.
	Guards     atomic.Uint64
	GuardFails atomic.Uint64
	// ICHits / ICMisses / ICMega count shape-IC probes that hit a
	// cached entry, rewrote the cache, or fell through a megamorphic
	// cache to the generic path.
	ICHits   atomic.Uint64
	ICMisses atomic.Uint64
	ICMega   atomic.Uint64
	// GenericPropCalls counts property accesses resolved by the
	// generic by-name helpers (megamorphic fallback, LdPropGeneric /
	// StPropGeneric, and IC probes on shapeless or dynamic-miss
	// receivers).
	GenericPropCalls atomic.Uint64
	// ICStaleDropped counts IC tables rejected by the epoch guard —
	// tables an OptimizeAll republish left behind, detected on the
	// execution path and rebuilt.
	ICStaleDropped atomic.Uint64
}

// propICCapacity is the polymorphic inline cache size; beyond it a
// site is marked megamorphic and stops probing.
const propICCapacity = 4

// PropIC is one property site's polymorphic inline cache, burned into
// the site's smashable link slot: up to propICCapacity (shape ID ->
// slot) pairs. Tables are immutable once published — misses install a
// copied table (last-writer-wins, a benign race: a lost entry is
// re-installed on the next miss) — and the link's epoch stamp
// invalidates the whole site wholesale at OptimizeAll republish.
type PropIC struct {
	N       int
	Mega    bool
	Entries [propICCapacity]PropICEntry
}

// PropICEntry maps an object shape to the property's slot index.
type PropICEntry struct {
	Shape uint32
	Slot  int32
}

// InlineResume is one materialized inline frame: run Frame; its
// return value is pushed in the enclosing frame, which resumes at
// RetBCOff.
type InlineResume struct {
	Frame    *interp.Frame
	RetBCOff int
}

// CallGuestFn dispatches a guest call from JITed code back through
// the VM (which may pick another translation or the interpreter).
// hint, when non-nil, is the call site's smashed callee link: the VM
// enters it directly when its entry guards match the fresh frame,
// skipping the dispatcher Lookup. The second return value is the
// translation the callee actually entered first (nil if it started in
// the interpreter); the machine smashes the call site with it.
type CallGuestFn func(f *hhbc.Func, this *runtime.Object, args []runtime.Value, hint ChainTarget) (runtime.Value, ChainTarget, error)

// Machine executes assembled translations.
type Machine struct {
	Env      *interp.Env
	Meter    *Meter
	Counters *profile.Counters
	Cache    *mcode.Cache
	Fetch    *FetchModel

	// CallGuest is installed by the VM.
	CallGuest CallGuestFn

	// Fallback, installed by the VM, scans the published retranslation
	// cluster at (fr.Fn, fr.PC) for a chainable translation matching fr —
	// the in-cache guard cascade taken when a smashed link's guards
	// miss. It must NOT mint translations or take the JIT's write
	// lease. Nil when chaining is unavailable.
	Fallback func(fr *interp.Frame) ChainTarget

	// FI, when non-nil, injects translation-entry panics
	// (faultinject.TransPanic) so the containment path is exercised
	// under test and in the `-exp faults` experiment.
	FI *faultinject.Injector

	// Epoch points at the JIT's translation-index version counter;
	// links stamped with an older epoch are stale and fall back to
	// the dispatch path. Nil disables link following entirely.
	Epoch *atomic.Uint64
	// Chain is the JIT-shared chaining statistics sink.
	Chain *ChainStats
	// Shapes is the JIT-shared shape-guard/IC statistics sink.
	Shapes *ShapeStats
	// OpMix, when set, counts every instruction the machine runs by op,
	// a superinstruction as one (tests: perflab's baseline). A
	// straight-line run is counted where it is charged (settle), so the
	// loop itself is the same with or without it.
	OpMix *[vasm.OpCount]uint64

	// methodCache: per-site monomorphic inline caches.
	methodCache map[int64]methodCacheEnt

	// argBufs is a free-list of call-argument scratch slices (runCall
	// hot path); it is a stack because guest calls nest.
	argBufs [][]runtime.Value
	// acts is the activation stack: Exec nests (a guest call from JITed
	// code re-enters it), so the activation of nesting level i is
	// acts[i], reused by every Exec at that level. actTop is the next
	// free level.
	acts   []*activation
	actTop int
	// chains is a free list of Outcome.Inline slices, handed back by
	// PutInlineChain: a list because an inline chain's frames run guest
	// code that may side-exit out of another one before it is done.
	chains [][]InlineResume
}

type methodCacheEnt struct {
	cls    *runtime.Class
	funcID int
}

// New creates a machine bound to an environment.
func New(env *interp.Env, meter *Meter, counters *profile.Counters, cache *mcode.Cache) *Machine {
	m := &Machine{
		Env: env, Meter: meter, Counters: counters, Cache: cache,
		Fetch:       NewFetchModel(),
		Chain:       &ChainStats{},
		Shapes:      &ShapeStats{},
		methodCache: map[int64]methodCacheEnt{},
	}
	m.Fetch.Huge = cache
	return m
}

// activation is the per-execution machine state.
type activation struct {
	// vals is the value file: the machine registers, then the spill
	// slots, then the constant slots. An mcode.Instr's register and
	// constant operands index it directly. It is a window of file, which
	// the activation carries so that most code costs no allocation of its
	// own (the site's 99th percentile needs 25 values); a translation
	// that needs more grows it once, and the activation keeps what it
	// grew.
	vals []runtime.Value
	file [vasm.TotalMachineRegs + 16]runtime.Value
	fr   *interp.Frame
	// entryPC is the bytecode pc the currently-executing translation
	// was entered at (updated on every chained transfer).
	entryPC int
}

// bindSpace sizes the activation for code: the value file, with code's
// constants in its constant slots, and the frame extension for
// inline-callee locals.
func (a *activation) bindSpace(code *mcode.Code) {
	n := code.NumValues()
	if n < len(a.vals) {
		clear(a.vals[n:]) // a parked value must not pin a guest object
	}
	switch {
	case n <= cap(a.vals):
		a.vals = a.vals[:n]
	case n <= len(a.file):
		a.vals = a.file[:n]
	default:
		a.vals = make([]runtime.Value, n)
	}
	copy(a.vals[code.ConstBase():], code.Consts[:code.NumSlots])
	for len(a.fr.Locals) < code.ExtSlots {
		a.fr.Locals = append(a.fr.Locals, runtime.Uninit())
	}
}

// scrub clears held values so a parked activation does not pin guest
// objects.
func (a *activation) scrub() {
	clear(a.vals)
	a.vals = a.vals[:0]
	a.fr = nil
}

// Exec runs code against fr until it returns, exits, or throws.
// Chained bind jumps tail-transfer into successor translations
// without returning, so one Exec may traverse many translations.
func (m *Machine) Exec(code *mcode.Code, fr *interp.Frame) Outcome {
	level := m.actTop
	if level == len(m.acts) {
		m.acts = append(m.acts, new(activation))
	}
	act := m.acts[level]
	m.actTop = level + 1
	act.fr = fr
	act.entryPC = fr.PC
	act.bindSpace(code)
	out := m.exec(code, act)
	act.scrub()
	m.actTop = level
	return out
}

func (m *Machine) exec(code *mcode.Code, act *activation) (out Outcome) {
	fr := act.fr
	h := m.Env.Heap
	guardFails := 0
	// chained counts direct transfers taken this Exec; the budget is a
	// backstop that bounces through the dispatcher (and its livelock
	// detection) if a chain degenerates into a no-progress cycle.
	chained := 0
	// Block 0 is the translation entry; layout may have placed hotter
	// loop blocks ahead of it.
	ip := code.Entry()
	// Dispatch state (see dispatch.go): static cycles are charged per
	// straight-line run [runStart, ip] via CostPrefix, and the fetch
	// model is probed only at line heads and transfers (xfer). runStart
	// -1 means nothing has been dispatched yet.
	runStart := -1
	xfer := true
	// Hot loop state hoisted out of code and act so the per-instruction
	// path does not reload slice headers through their pointers (calls
	// in the loop body would otherwise force reloads). Refreshed at
	// every chained transfer into a different translation.
	instrs := code.Instrs
	flags := code.DispatchFlags
	consts := code.Consts
	checks := code.Checks
	regs := code.Regs
	vals := act.vals
	// Operands of the control-transfer tails at the bottom of the loop
	// body (see the labels there).
	var (
		nip  int     // branch, guardFail: the stream index control moves to
		cond bool    // jcc: the condition before the inversion bit
		exit Outcome // chain: the exit just taken at smash site ip
		err  error   // throw: the guest error raised at ip
	)
	defer func() {
		// Fault containment: a panic inside a translation becomes a
		// typed TransFault outcome instead of killing the process. The
		// frame is re-synced to the entry pc of the translation that
		// faulted; the VM quarantines the address and re-executes the
		// stretch in the interpreter.
		if r := recover(); r != nil {
			if runStart >= 0 {
				// Settle the pending run through the panicking
				// instruction: it was dispatched, so it is charged.
				through := ip
				if through > len(code.Instrs)-1 {
					through = len(code.Instrs) - 1
				}
				m.settle(code, runStart, through)
			}
			reason := fmt.Sprintf("panic: %v", r)
			if ip >= 0 && ip < len(code.Instrs) {
				reason = fmt.Sprintf("panic at ip=%d op=%s: %v", ip, code.Instrs[ip].Op, r)
			}
			out = m.faultOutcome(act, guardFails, reason)
		}
	}()
	// Assemble leaves CostPrefix zero, and a prepared stream never
	// totals 0: it ends in a transfer.
	if code.CostPrefix[len(instrs)] == 0 {
		return m.faultOutcome(act, guardFails, "code not prepared for dispatch")
	}
	if m.FI.Should(faultinject.TransPanic) {
		panic(faultinject.Errf(faultinject.TransPanic))
	}
	runStart = ip
	for {
		if ip >= len(instrs) {
			m.settle(code, runStart, ip-1)
			return m.faultOutcome(act, guardFails, "fell off code end")
		}
		in := &instrs[ip]
		if fl := flags[ip]; fl != 0 || xfer {
			// Line head or transfer landing: probe the fetch model (free
			// when the line is unchanged — over-probing at a same-line
			// transfer is invisible).
			m.Meter.Cycles += m.Fetch.Fetch(code.AddrOf(ip))
			xfer = false
			if fl&mcode.FlagFetchTails != 0 {
				tails := code.FetchTails
				for k := int(fl >> mcode.FlagBits); k < len(tails) && int(tails[k]) == ip; k += 2 {
					m.Meter.Cycles += m.Fetch.Fetch(code.Base + uint64(tails[k+1]))
				}
			}
		}

		switch in.Op {
		case vasm.Nop:
		case vasm.LdImm:
			vals[in.D] = consts[in.I64]
		case vasm.Copy, vasm.Spill, vasm.Reload:
			// A spill slot is one more index into the value file.
			vals[in.D] = vals[in.A]
		case vasm.LdLoc:
			v := fr.Locals[in.I64]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			vals[in.D] = v
		case vasm.StLoc:
			fr.Locals[in.I64] = vals[in.A]
		case vasm.LdStk:
			if i := int(in.I64); i >= 0 && i < len(fr.Stack) {
				vals[in.D] = fr.Stack[i]
			} else {
				// A layout bug, not a guest condition: fault the
				// translation so the self-healing path quarantines it
				// instead of silently computing on a phantom Null.
				m.settle(code, runStart, ip)
				return m.faultOutcome(act, guardFails, fmt.Sprintf(
					"LdStk slot %d out of range (stack depth %d)", in.I64, len(fr.Stack)))
			}

		case vasm.GuardKind:
			if !checks[in.T2].Holds(vals[in.A]) {
				goto guardFail
			}
		case vasm.GuardCls:
			v := vals[in.A]
			if v.Kind != types.KObj || int64(v.AsObj().Class.ClassID) != in.I64 {
				goto guardFail
			}
		case vasm.GuardShape:
			v := vals[in.A]
			m.Shapes.Guards.Add(1)
			if v.Kind != types.KObj || v.AsObj().ShapeID() != uint32(in.I64) {
				m.Shapes.GuardFails.Add(1)
				goto guardFail
			}
		case vasm.LdLocGK:
			// Fused LdLoc + GuardKind: load the local, then guard the
			// loaded value exactly as the unfused pair would.
			v := fr.Locals[in.I64]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			vals[in.D] = v
			if !checks[in.T2].Holds(v) {
				goto guardFail
			}

		case vasm.AddI:
			vals[in.D] = runtime.Int(vals[in.A].AsInt() + vals[in.B].AsInt())
		case vasm.SubI:
			vals[in.D] = runtime.Int(vals[in.A].AsInt() - vals[in.B].AsInt())
		case vasm.MulI:
			vals[in.D] = runtime.Int(vals[in.A].AsInt() * vals[in.B].AsInt())
		case vasm.NegI:
			vals[in.D] = runtime.Int(-vals[in.A].AsInt())
		case vasm.AddD:
			vals[in.D] = runtime.Dbl(vals[in.A].AsDbl() + vals[in.B].AsDbl())
		case vasm.SubD:
			vals[in.D] = runtime.Dbl(vals[in.A].AsDbl() - vals[in.B].AsDbl())
		case vasm.MulD:
			vals[in.D] = runtime.Dbl(vals[in.A].AsDbl() * vals[in.B].AsDbl())
		case vasm.DivD:
			b := vals[in.B].AsDbl()
			if b == 0 {
				// The generic division raises for this fast path.
				_, err = runtime.Div(vals[in.A], vals[in.B])
				goto throw
			}
			vals[in.D] = runtime.Dbl(vals[in.A].AsDbl() / b)
		case vasm.NegD:
			vals[in.D] = runtime.Dbl(-vals[in.A].AsDbl())
		case vasm.CmpI:
			vals[in.D] = runtime.Bool(cmpI(in.I64&0xff, vals[in.A].AsInt(), vals[in.B].AsInt()))
		case vasm.CmpD:
			vals[in.D] = runtime.Bool(cmpD(in.I64&0xff, vals[in.A].AsDbl(), vals[in.B].AsDbl()))

		case vasm.ToBool:
			vals[in.D] = runtime.Bool(vals[in.A].Bool())
		case vasm.ToInt:
			vals[in.D] = runtime.Int(vals[in.A].ToInt())
		case vasm.ToDbl:
			vals[in.D] = runtime.Dbl(vals[in.A].ToDbl())

		case vasm.IncRef:
			h.IncRef(vals[in.A])
		case vasm.DecRef:
			h.DecRef(vals[in.A])

		// Non-branching superinstructions.
		case vasm.IncRefN:
			for _, r := range regs[in.X : in.X+int32(in.N)] {
				h.IncRef(vals[r])
			}
		case vasm.DecRefN:
			for _, r := range regs[in.X : in.X+int32(in.N)] {
				h.DecRef(vals[r])
			}

		case vasm.ArrCount:
			vals[in.D] = runtime.Int(int64(vals[in.A].AsArr().Len()))
		case vasm.ArrGetPkI:
			el, ok := vals[in.A].AsArr().GetIntKey(vals[in.B].AsInt())
			if !ok || el.Kind == types.KUninit {
				el = runtime.Null()
				m.Meter.Charge(helperCost[vasm.HArrGetPackedMiss].base)
			}
			h.IncRef(el)
			vals[in.D] = el

		case vasm.LdProp:
			vals[in.D] = vals[in.A].AsObj().GetPropSlot(int(in.I64))
		case vasm.StProp:
			vals[in.A].AsObj().SetPropSlot(h, int(in.I64), vals[in.B])

		case vasm.LdPropIC:
			ov := vals[in.A]
			if ov.Kind == types.KObj {
				if slot, ok := m.probePropIC(code, ip, ov.AsObj(), in.T2); ok {
					p := ov.AsObj().GetPropSlot(slot)
					if p.Kind == types.KUninit {
						p = runtime.Null()
					}
					h.IncRef(p)
					vals[in.D] = p
					break
				}
			}
			// Megamorphic site, shapeless receiver, a property the shape
			// does not describe, or no object at all: generic by-name path.
			m.Shapes.GenericPropCalls.Add(1)
			var p runtime.Value
			if p, err = runtime.GetPropNamed(h, ov, code.Str(in.T2)); err != nil {
				goto throw
			}
			vals[in.D] = p
		case vasm.StPropIC:
			ov, val := vals[in.A], vals[in.B]
			if ov.Kind == types.KObj {
				if slot, ok := m.probePropIC(code, ip, ov.AsObj(), in.T2); ok {
					// SetPropSlot maintains the shape on retyping stores, so
					// the cached slot stays valid across kind changes.
					ov.AsObj().SetPropSlot(h, slot, val)
					break
				}
			}
			m.Shapes.GenericPropCalls.Add(1)
			if err = runtime.SetPropNamed(h, ov, code.Str(in.T2), val); err != nil {
				goto throw
			}
		case vasm.LdThis:
			var this runtime.Value
			if this, err = fr.ThisObj(); err != nil {
				goto throw
			}
			vals[in.D] = this

		case vasm.Helper:
			hid, extra := vasm.UnpackHelper(in.I64)
			c := &helperCost[hid]
			m.Meter.Charge(c.base + c.perArg*uint64(in.N))
			var res runtime.Value
			if res, err = m.runHelper(code, act, hid, extra, in); err != nil {
				goto throw
			}
			if in.D != mcode.NoReg {
				vals[in.D] = res
			}

		case vasm.CallFunc, vasm.CallBuiltin, vasm.CallMethodD, vasm.CallMethodC:
			var res runtime.Value
			if res, err = m.runCall(code, ip, act, in); err != nil {
				goto throw
			}
			m.Meter.Charge(callReturnCost)
			if in.D != mcode.NoReg {
				vals[in.D] = res
			}

		case vasm.CountInc:
			if m.Counters != nil {
				m.Counters.Inc(profile.TransID(in.I64))
			}
		case vasm.ProfCallSite:
			if m.Counters != nil {
				v := vals[in.A]
				if v.Kind == types.KObj {
					m.Counters.RecordCallTarget(
						profile.CallSite{FuncID: fr.Fn.ID, PC: int(in.I64)},
						v.AsObj().Class.Name)
				}
			}
		case vasm.ProfPropShape:
			if m.Counters != nil {
				v := vals[in.A]
				if v.Kind == types.KObj {
					if sid := v.AsObj().ShapeID(); sid != 0 {
						m.Counters.RecordPropShape(
							profile.CallSite{FuncID: fr.Fn.ID, PC: int(in.I64)}, sid)
					}
				}
			}

		case vasm.Jmp:
			nip = int(in.T1)
			goto branch
		case vasm.Jcc:
			cond = vals[in.A].Bool()
			goto jcc
		case vasm.CmpIJcc:
			// Fused CmpI + Jcc: write the compare result, then branch
			// on it.
			cond = cmpI(in.I64&0xff, vals[in.A].AsInt(), vals[in.B].AsInt())
			vals[in.D] = runtime.Bool(cond)
			goto jcc
		case vasm.CmpDJcc:
			cond = cmpD(in.I64&0xff, vals[in.A].AsDbl(), vals[in.B].AsDbl())
			vals[in.D] = runtime.Bool(cond)
			goto jcc
		case vasm.JmpTable:
			// The window holds the table's entries, then its default.
			tbl := code.JumpTargets[in.X : in.X+int32(in.N)]
			if idx := vals[in.A].ToInt() - in.I64; idx >= 0 && idx < int64(len(tbl)-1) {
				nip = int(tbl[idx])
			} else {
				nip = int(tbl[len(tbl)-1])
			}
			goto branch

		case vasm.Ret:
			m.settle(code, runStart, ip)
			v := vals[in.A]
			m.Meter.Charge(uint64(2 * len(fr.Locals))) // frame teardown
			fr.Stack = fr.Stack[:0]
			fr.Release(m.Env)
			return Outcome{Kind: Returned, Value: v, GuardFails: guardFails,
				EntryPC: act.entryPC}

		case vasm.Exit:
			m.settle(code, runStart, ip)
			exit = m.takeExit(code, act, in.X, SideExit, nil, guardFails)
			goto chain
		case vasm.BindJmp:
			m.settle(code, runStart, ip)
			exit = m.takeExit(code, act, in.X, BindRequest, nil, guardFails)
			exit.BCOff = int(in.I64)
			if exit.Inline == nil {
				fr.PC = exit.BCOff
			}
			goto chain

		default:
			m.settle(code, runStart, ip)
			return m.faultOutcome(act, guardFails, fmt.Sprintf("bad opcode %s", in.Op))
		}
		ip++
		continue

		// Control-transfer tails, each written once and entered by goto
		// from the cases above.

	jcc: // conditional branch on cond, honoring the jump-optimization inversion bit
		if in.I64&0x100 != 0 {
			cond = !cond
		}
		if cond {
			nip = int(in.T1)
		} else {
			nip = int(in.T2)
		}
	branch: // control moves to stream index nip
		// Fallthrough coalescing: a branch to the next stream instruction
		// continues the straight-line run — no settlement, no fetch
		// re-probe (DispatchFlags already describe stream-successive
		// lines, and the jump's own cost is inside the prefix sums).
		if nip == ip+1 {
			ip = nip
			continue
		}
		m.settle(code, runStart, ip)
		ip = nip
		runStart, xfer = ip, true
		continue

	guardFail: // the guard at ip failed: its target is a chained block or an exit stub
		guardFails++
		m.settle(code, runStart, ip)
		m.Meter.Charge(guardFailPenalty)
		nip = int(in.T1)
		if nip >= len(instrs) || instrs[nip].Op != vasm.Exit {
			ip, runStart, xfer = nip, nip, true
			continue
		}
		// An exit stub: a single Exit instruction, the smash site.
		m.Meter.Charge(opCost(vasm.Exit))
		if m.OpMix != nil {
			m.OpMix[vasm.Exit]++
		}
		ip = nip
		exit = m.takeExit(code, act, instrs[ip].X, SideExit, nil, guardFails)
	chain: // exit was taken at smash site ip: follow its link or leave
		if nc, cip, ok := m.chainFrom(code, ip, act, &exit, &chained); ok {
			code, ip = nc, cip
			runStart, xfer = cip, true
			instrs, flags, consts, checks, regs = code.Instrs, code.DispatchFlags, code.Consts, code.Checks, code.Regs
			vals = act.vals
			continue
		}
		return exit

	throw: // guest error err raised by the instruction at ip
		m.settle(code, runStart, ip)
		return m.throwTo(code, act, in.T1, err, guardFails)
	}
}

// settle charges the static cost of the straight-line stretch
// [runStart, through] in one add, and counts its ops into OpMix when
// that is set. No-op when the stretch is empty (through < runStart).
func (m *Machine) settle(code *mcode.Code, runStart, through int) {
	if through >= runStart {
		m.Meter.Cycles += uint64(code.CostPrefix[through+1] - code.CostPrefix[runStart])
		if m.OpMix != nil {
			for i := runStart; i <= through; i++ {
				m.OpMix[code.Instrs[i].Op]++
			}
		}
	}
}

// faultOutcome builds the contained-fault outcome for the translation
// act is currently executing: the frame is re-synced to the entry pc
// (where the interpreter can deterministically re-execute) and the
// eval stack left as the entry stack — the machine only rewrites
// fr.Stack at exits, so at this point it still holds the entry state.
func (m *Machine) faultOutcome(act *activation, guardFails int, reason string) Outcome {
	fr := act.fr
	fr.PC = act.entryPC
	fnID := -1
	if fr.Fn != nil {
		fnID = fr.Fn.ID
	}
	return Outcome{
		Kind: Faulted, BCOff: act.entryPC, EntryPC: act.entryPC,
		GuardFails: guardFails,
		Err:        &TransFault{FuncID: fnID, PC: act.entryPC, Reason: reason},
	}
}

// chainBudget bounds chained transfers per Exec. It is deliberately
// huge — real loops should stay in the machine — and only exists so a
// degenerate no-progress chain cycle periodically surfaces at the
// dispatcher, whose livelock detection can break it.
const chainBudget = 1 << 20

// chainFrom follows the smash-site link at (code, ip) after an exit
// resolved the continuation pc: on success the machine tail-transfers
// into the successor — no dispatcher round-trip, no activation
// rebuild, a smashed-jump charge instead of the dispatch fee — and
// (newCode, newIP, true) is returned. On failure the outcome's smash
// site is marked (when bindable) so the dispatcher smashes it with
// whatever translation it picks next.
func (m *Machine) chainFrom(code *mcode.Code, ip int, act *activation, out *Outcome, chained *int) (*mcode.Code, int, bool) {
	if out.Kind != SideExit && out.Kind != BindRequest {
		return nil, 0, false
	}
	if out.Inline != nil || !code.Chainable {
		return nil, 0, false
	}
	fr := act.fr
	// No-progress exits (continuation pc == the pc this translation was
	// entered at) always bounce to the dispatcher: its livelock check
	// forces an interpreter stretch, exactly as in unchained dispatch.
	if *chained < chainBudget && fr.PC != act.entryPC {
		if l := code.LoadLink(ip); l != nil {
			var target ChainTarget
			stale := false
			if m.Epoch == nil || l.Epoch != m.Epoch.Load() {
				stale = true
				m.Chain.StaleLinks.Add(1)
			} else if t, ok := l.Target.(ChainTarget); ok {
				var from *mcode.Code
				if out.Kind == BindRequest {
					from = code
				}
				guards, match := t.ChainMatch(fr, from)
				m.Meter.Charge(smashedJumpCost + chainGuardCost*uint64(guards))
				if t.ChainCode().Chainable && match {
					target = t
				} else {
					m.Chain.ChainMismatches.Add(1)
				}
			}
			if target == nil && m.Fallback != nil {
				// The link is stale or its guards missed: cascade
				// through the published retranslation cluster (guards
				// chained in the code cache) before bouncing to the
				// dispatcher. Fallback only returns chainable matches.
				target = m.Fallback(fr)
			}
			if target != nil {
				nc := target.ChainCode()
				if stale && m.Epoch != nil {
					// Repair the stale link in place (a re-smash) so
					// later transfers skip the fallback scan.
					code.StoreLink(ip, target.ChainLink(m.Epoch.Load()))
					m.Chain.BindsSmashed.Add(1)
				}
				m.Chain.ChainedJumps.Add(1)
				*chained++
				act.bindSpace(nc)
				act.entryPC = fr.PC
				return nc, nc.Entry(), true
			}
		}
	}
	out.BindCode, out.BindInstr = code, ip
	return nil, 0, false
}

// probePropIC resolves a property through the shape IC burned into
// the site's link slot. Returns (slot, true) when the receiver's
// shape resolves the name — via a cached entry (hit) or a freshly
// installed one (miss) — and (0, false) when the access must take the
// generic by-name path: megamorphic site, shapeless object, or a name
// the current shape does not describe (a dynamic-property store about
// to transition the shape). Tables are copy-on-write; a racing
// install is last-writer-wins (the lost entry is re-installed on the
// next miss). Epoch-stale links are ignored and rebuilt against the
// current epoch, so a republish invalidates every site wholesale.
func (m *Machine) probePropIC(code *mcode.Code, ip int, o *runtime.Object, name int32) (int, bool) {
	var epoch uint64
	if m.Epoch != nil {
		epoch = m.Epoch.Load()
	}
	sid := o.ShapeID()
	var ic *PropIC
	if l := code.LoadLink(ip); l != nil {
		if l.Epoch == epoch {
			ic, _ = l.Target.(*PropIC)
		} else if _, isIC := l.Target.(*PropIC); isIC {
			// Epoch guard caught an outdated IC table (a republish the
			// site missed): the table is dropped and rebuilt below
			// against the current epoch.
			m.Shapes.ICStaleDropped.Add(1)
		}
	}
	if ic != nil {
		if ic.Mega {
			m.Shapes.ICMega.Add(1)
			m.Meter.Charge(icMegaCost)
			return 0, false
		}
		for i := 0; i < ic.N; i++ {
			if ic.Entries[i].Shape == sid {
				m.Shapes.ICHits.Add(1)
				return int(ic.Entries[i].Slot), true
			}
		}
	}
	m.Shapes.ICMisses.Add(1)
	m.Meter.Charge(icMissCost)
	if sid == 0 {
		return 0, false
	}
	slot, ok := o.Shape.Lookup(code.Str(name))
	if !ok {
		return 0, false
	}
	next := &PropIC{}
	if ic != nil {
		*next = *ic
	}
	if next.N >= propICCapacity {
		next.Mega = true
	} else {
		next.Entries[next.N] = PropICEntry{Shape: sid, Slot: int32(slot)}
		next.N++
	}
	code.StoreLink(ip, &mcode.Link{Epoch: epoch, Target: next})
	return slot, true
}

// throwTo routes a guest error through the instruction's catch stub
// (a stream index, -1 for none), materializing frame state.
func (m *Machine) throwTo(code *mcode.Code, act *activation, stub int32, err error, guardFails int) Outcome {
	x := int32(-1)
	if stub >= 0 && int(stub) < len(code.Instrs) && code.Instrs[stub].Op == vasm.Exit {
		x = code.Instrs[stub].X
	}
	return m.takeExit(code, act, x, Threw, err, guardFails)
}

// takeExit materializes VM state per the exit descriptor code.Exits[x]
// (-1: none).
func (m *Machine) takeExit(code *mcode.Code, act *activation, x int32, kind OutcomeKind, err error, guardFails int) Outcome {
	fr := act.fr
	out := Outcome{Kind: kind, Err: err, GuardFails: guardFails, EntryPC: act.entryPC}
	if x < 0 {
		out.BCOff = fr.PC
		fr.Stack = fr.Stack[:0]
		return out
	}
	ex := &code.Exits[x]
	vals, regs := act.vals, code.Regs
	out.BCOff = int(ex.BCOff)
	stack := regs[ex.Stack : ex.Stack+ex.NStack]
	if ex.Inline >= 0 {
		// Materialize the whole chain of inlined callee frames from
		// the extended local slots (Section 5.3.1: side exits can
		// materialize an arbitrary number of callee frames),
		// innermost first, each from the env's free list (the VM
		// hands them back with the chain once they have run). The
		// eval stack of frame i comes from the caller stack of the
		// context one level in; the innermost frame's stack is the
		// exit's own.
		if n := len(m.chains); n > 0 {
			out.Inline, m.chains = m.chains[n-1], m.chains[:n-1]
		}
		pc := out.BCOff
		for k := ex.Inline; k >= 0; {
			ii := &code.Inlines[k]
			var this *runtime.Object
			if ii.This != mcode.NoReg {
				if tv := vals[ii.This]; tv.Kind == types.KObj {
					this = tv.AsObj()
				}
			}
			cf := m.Env.TakeEmptyFrame(m.Env.Unit.Funcs[ii.FuncID], this)
			cf.PC = pc
			base := int(ii.LocalsBase)
			for i := range cf.Locals {
				cf.Locals[i] = fr.Locals[base+i]
				fr.Locals[base+i] = runtime.Uninit()
			}
			for _, r := range stack {
				cf.Stack = append(cf.Stack, vals[r])
			}
			out.Inline = append(out.Inline, InlineResume{Frame: cf, RetBCOff: int(ii.RetBCOff)})
			// The enclosing frame resumes after this context's call.
			stack, pc = regs[ii.Stack:ii.Stack+ii.NStack], int(ii.RetBCOff)
			k = ii.Parent
		}
		// The root frame's stack is the outermost caller stack.
		fr.Stack = fr.Stack[:0]
		for _, r := range stack {
			fr.Stack = append(fr.Stack, vals[r])
		}
		return out
	}
	fr.Stack = fr.Stack[:0]
	for _, r := range stack {
		fr.Stack = append(fr.Stack, vals[r])
	}
	fr.PC = out.BCOff
	return out
}

// PutInlineChain takes back an Outcome.Inline whose frames the caller
// has handed back to the env.
func (m *Machine) PutInlineChain(chain []InlineResume) {
	clear(chain)
	m.chains = append(m.chains, chain[:0])
}

func cmpI(cond, a, b int64) bool {
	switch cond {
	case 0:
		return a < b
	case 1:
		return a <= b
	case 2:
		return a > b
	case 3:
		return a >= b
	case 4:
		return a == b
	default:
		return a != b
	}
}

func cmpD(cond int64, a, b float64) bool {
	switch cond {
	case 0:
		return a < b
	case 1:
		return a <= b
	case 2:
		return a > b
	case 3:
		return a >= b
	case 4:
		return a == b
	default:
		return a != b
	}
}
