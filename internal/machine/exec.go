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
	// and type preconditions) against the live frame.
	ChainMatch(fr *interp.Frame) bool
	// ChainGuards is the precondition count (cost accounting).
	ChainGuards() int
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
	// miss. It must NOT mint translations or touch the dispatcher's
	// single-flight path. Nil when chaining is unavailable.
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
	m.Fetch.HugeCovers = cache.HugeCovers
	return m
}

// activation is the per-execution machine state.
type activation struct {
	regs   [vasm.TotalMachineRegs]runtime.Value
	spills []runtime.Value
	fr     *interp.Frame
	// entryPC is the bytecode pc the currently-executing translation
	// was entered at (updated on every chained transfer).
	entryPC int
}

// bindSpace sizes the activation for code: the spill area and the
// frame extension for inline-callee locals.
func (a *activation) bindSpace(code *mcode.Code) {
	if n := code.NumSpills; n <= cap(a.spills) {
		a.spills = a.spills[:n]
	} else {
		a.spills = make([]runtime.Value, n)
	}
	for len(a.fr.Locals) < code.ExtSlots {
		a.fr.Locals = append(a.fr.Locals, runtime.Uninit())
	}
}

// scrub clears held values so a parked activation does not pin guest
// objects.
func (a *activation) scrub() {
	clear(a.regs[:])
	clear(a.spills)
	a.spills = a.spills[:0]
	a.fr = nil
}

func (a *activation) get(r vasm.Reg) runtime.Value {
	if r >= vasm.SpillRegBase {
		return a.spills[r-vasm.SpillRegBase]
	}
	return a.regs[r]
}

func (a *activation) set(r vasm.Reg, v runtime.Value) {
	if r >= vasm.SpillRegBase {
		a.spills[r-vasm.SpillRegBase] = v
		return
	}
	a.regs[r] = v
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
	// Fast dispatch state (see dispatch.go): fast code charges static
	// cycles per straight-line run [runStart, ip] via CostPrefix and
	// probes the fetch model only at line heads and transfers (xfer).
	// runStart -1 means nothing has been dispatched yet.
	fast := code.FastDispatch
	runStart := -1
	xfer := true
	// Hot loop state hoisted out of code so the per-instruction path
	// does not reload slice headers through the Code pointer (calls in
	// the loop body would otherwise force reloads). Refreshed at every
	// chained transfer into a different translation.
	instrs := code.Instrs
	flags := code.DispatchFlags
	starts := code.BlockStart
	consts := code.Consts
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
			if fast && runStart >= 0 {
				// Settle the pending run through the panicking
				// instruction (the classic path charges each
				// instruction before executing it).
				through := ip
				if through > len(code.Instrs)-1 {
					through = len(code.Instrs) - 1
				}
				settleRun(m.Meter, code, runStart, through)
			}
			reason := fmt.Sprintf("panic: %v", r)
			if ip >= 0 && ip < len(code.Instrs) {
				reason = fmt.Sprintf("panic at ip=%d op=%s: %v", ip, code.Instrs[ip].Op, r)
			}
			out = m.faultOutcome(act, guardFails, reason)
		}
	}()
	if m.FI.Should(faultinject.TransPanic) {
		panic(faultinject.Errf(faultinject.TransPanic))
	}
	runStart = ip
	for {
		if ip >= len(instrs) {
			if fast {
				settleRun(m.Meter, code, runStart, ip-1)
			}
			return m.faultOutcome(act, guardFails, "fell off code end")
		}
		in := &instrs[ip]
		if fast {
			if fl := flags[ip]; fl != 0 || xfer {
				// Line head or transfer landing: probe the fetch model
				// (free when the line is unchanged — over-probing at a
				// same-line transfer is invisible).
				m.Meter.Cycles += m.Fetch.Fetch(code.AddrOf(ip))
				xfer = false
				if fl&mcode.FlagFetchTails != 0 {
					for _, ta := range code.FetchTails[ip] {
						m.Meter.Cycles += m.Fetch.Fetch(ta)
					}
				}
			}
		} else {
			m.Meter.Cycles += opCost(in.Op) + m.Fetch.Fetch(code.AddrOf(ip))
		}

		switch in.Op {
		case vasm.Nop:
		case vasm.LdImm:
			act.set(in.D, consts[in.I64])
		case vasm.Copy:
			act.set(in.D, act.get(in.A))
		case vasm.LdLoc:
			v := fr.Locals[in.I64]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			act.set(in.D, v)
		case vasm.StLoc:
			fr.Locals[in.I64] = act.get(in.A)
		case vasm.LdStk:
			if i := int(in.I64); i >= 0 && i < len(fr.Stack) {
				act.set(in.D, fr.Stack[i])
			} else {
				// A layout bug, not a guest condition: fault the
				// translation so the self-healing path quarantines it
				// instead of silently computing on a phantom Null.
				if fast {
					settleRun(m.Meter, code, runStart, ip)
				}
				return m.faultOutcome(act, guardFails, fmt.Sprintf(
					"LdStk slot %d out of range (stack depth %d)", in.I64, len(fr.Stack)))
			}
		case vasm.Spill:
			act.spills[in.I64] = act.get(in.A)
		case vasm.Reload:
			act.set(in.D, act.spills[in.I64])

		case vasm.GuardKind:
			if !act.get(in.A).Type().SubtypeOf(in.TypeParam) {
				goto guardFail
			}
		case vasm.GuardCls:
			v := act.get(in.A)
			if v.Kind != types.KObj || int64(v.AsObj().Class.ClassID) != in.I64 {
				goto guardFail
			}
		case vasm.GuardShape:
			v := act.get(in.A)
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
			act.set(in.D, v)
			if !v.Type().SubtypeOf(in.TypeParam) {
				goto guardFail
			}

		case vasm.AddI:
			act.set(in.D, runtime.Int(act.get(in.A).AsInt()+act.get(in.B).AsInt()))
		case vasm.SubI:
			act.set(in.D, runtime.Int(act.get(in.A).AsInt()-act.get(in.B).AsInt()))
		case vasm.MulI:
			act.set(in.D, runtime.Int(act.get(in.A).AsInt()*act.get(in.B).AsInt()))
		case vasm.NegI:
			act.set(in.D, runtime.Int(-act.get(in.A).AsInt()))
		case vasm.AddD:
			act.set(in.D, runtime.Dbl(act.get(in.A).AsDbl()+act.get(in.B).AsDbl()))
		case vasm.SubD:
			act.set(in.D, runtime.Dbl(act.get(in.A).AsDbl()-act.get(in.B).AsDbl()))
		case vasm.MulD:
			act.set(in.D, runtime.Dbl(act.get(in.A).AsDbl()*act.get(in.B).AsDbl()))
		case vasm.DivD:
			b := act.get(in.B).AsDbl()
			if b == 0 {
				// The generic division raises for this fast path.
				_, err = runtime.Div(act.get(in.A), act.get(in.B))
				goto throw
			}
			act.set(in.D, runtime.Dbl(act.get(in.A).AsDbl()/b))
		case vasm.NegD:
			act.set(in.D, runtime.Dbl(-act.get(in.A).AsDbl()))
		case vasm.CmpI:
			act.set(in.D, runtime.Bool(cmpI(in.I64&0xff, act.get(in.A).AsInt(), act.get(in.B).AsInt())))
		case vasm.CmpD:
			act.set(in.D, runtime.Bool(cmpD(in.I64&0xff, act.get(in.A).AsDbl(), act.get(in.B).AsDbl())))

		case vasm.ToBool:
			act.set(in.D, runtime.Bool(act.get(in.A).Bool()))
		case vasm.ToInt:
			act.set(in.D, runtime.Int(act.get(in.A).ToInt()))
		case vasm.ToDbl:
			act.set(in.D, runtime.Dbl(act.get(in.A).ToDbl()))

		case vasm.IncRef:
			h.IncRef(act.get(in.A))
		case vasm.DecRef:
			h.DecRef(act.get(in.A))

		// Non-branching superinstructions.
		case vasm.LdImmAddI:
			act.set(vasm.Reg(in.Target2), consts[in.I64>>16])
			act.set(in.D, runtime.Int(act.get(in.A).AsInt()+act.get(in.B).AsInt()))
		case vasm.LdImmCmpI:
			act.set(vasm.Reg(in.Target2), consts[in.I64>>16])
			act.set(in.D, runtime.Bool(cmpI(in.I64&0xff, act.get(in.A).AsInt(), act.get(in.B).AsInt())))
		case vasm.IncRefN:
			for _, r := range in.Args {
				h.IncRef(act.get(r))
			}
		case vasm.DecRefN:
			for _, r := range in.Args {
				h.DecRef(act.get(r))
			}

		case vasm.ArrCount:
			act.set(in.D, runtime.Int(int64(act.get(in.A).AsArr().Len())))
		case vasm.ArrGetPkI:
			arr := act.get(in.A)
			el, ok := arr.AsArr().GetIntKey(act.get(in.B).AsInt())
			if !ok || el.Kind == types.KUninit {
				el = runtime.Null()
				m.Meter.Charge(helperCost[vasm.HArrGetPackedMiss].base)
			}
			h.IncRef(el)
			act.set(in.D, el)

		case vasm.LdProp:
			act.set(in.D, act.get(in.A).AsObj().GetPropSlot(int(in.I64)))
		case vasm.StProp:
			act.get(in.A).AsObj().SetPropSlot(h, int(in.I64), act.get(in.B))

		case vasm.LdPropIC:
			ov := act.get(in.A)
			if ov.Kind == types.KObj {
				if slot, ok := m.probePropIC(code, ip, ov.AsObj(), in.Str); ok {
					p := ov.AsObj().GetPropSlot(slot)
					if p.Kind == types.KUninit {
						p = runtime.Null()
					}
					h.IncRef(p)
					act.set(in.D, p)
					break
				}
			}
			// Megamorphic site, shapeless receiver, a property the shape
			// does not describe, or no object at all: generic by-name path.
			m.Shapes.GenericPropCalls.Add(1)
			var p runtime.Value
			if p, err = runtime.GetPropNamed(h, ov, in.Str); err != nil {
				goto throw
			}
			act.set(in.D, p)
		case vasm.StPropIC:
			ov, val := act.get(in.A), act.get(in.B)
			if ov.Kind == types.KObj {
				if slot, ok := m.probePropIC(code, ip, ov.AsObj(), in.Str); ok {
					// SetPropSlot maintains the shape on retyping stores, so
					// the cached slot stays valid across kind changes.
					ov.AsObj().SetPropSlot(h, slot, val)
					break
				}
			}
			m.Shapes.GenericPropCalls.Add(1)
			if err = runtime.SetPropNamed(h, ov, in.Str, val); err != nil {
				goto throw
			}
		case vasm.LdThis:
			var this runtime.Value
			if this, err = fr.ThisObj(); err != nil {
				goto throw
			}
			act.set(in.D, this)

		case vasm.Helper:
			hid, extra := vasm.UnpackHelper(in.I64)
			c := &helperCost[hid]
			m.Meter.Charge(c.base + c.perArg*uint64(len(in.Args)))
			var res runtime.Value
			if res, err = m.runHelper(act, hid, extra, in); err != nil {
				goto throw
			}
			if in.D != vasm.InvalidReg {
				act.set(in.D, res)
			}

		case vasm.CallFunc, vasm.CallBuiltin, vasm.CallMethodD, vasm.CallMethodC:
			var res runtime.Value
			if res, err = m.runCall(code, ip, act, in); err != nil {
				goto throw
			}
			m.Meter.Charge(callReturnCost)
			if in.D != vasm.InvalidReg {
				act.set(in.D, res)
			}

		case vasm.CountInc:
			if m.Counters != nil {
				m.Counters.Inc(profile.TransID(in.I64))
			}
		case vasm.ProfCallSite:
			if m.Counters != nil {
				v := act.get(in.A)
				if v.Kind == types.KObj {
					m.Counters.RecordCallTarget(
						profile.CallSite{FuncID: fr.Fn.ID, PC: int(in.I64)},
						v.AsObj().Class.Name)
				}
			}
		case vasm.ProfPropShape:
			if m.Counters != nil {
				v := act.get(in.A)
				if v.Kind == types.KObj {
					if sid := v.AsObj().ShapeID(); sid != 0 {
						m.Counters.RecordPropShape(
							profile.CallSite{FuncID: fr.Fn.ID, PC: int(in.I64)}, sid)
					}
				}
			}

		case vasm.Jmp:
			nip = int(starts[in.Target1])
			goto branch
		case vasm.Jcc:
			cond = act.get(in.A).Bool()
			goto jcc
		case vasm.CmpIJcc:
			// Fused CmpI + Jcc: write the compare result, then branch
			// on it.
			cond = cmpI(in.I64&0xff, act.get(in.A).AsInt(), act.get(in.B).AsInt())
			act.set(in.D, runtime.Bool(cond))
			goto jcc
		case vasm.CmpDJcc:
			cond = cmpD(in.I64&0xff, act.get(in.A).AsDbl(), act.get(in.B).AsDbl())
			act.set(in.D, runtime.Bool(cond))
			goto jcc
		case vasm.JmpTable:
			tbl := code.Tables[in.I64]
			idx := act.get(in.A).ToInt() - tbl.Base
			if idx >= 0 && idx < int64(len(tbl.Targets)) {
				nip = int(starts[tbl.Targets[idx]])
			} else {
				nip = int(starts[tbl.Default])
			}
			goto branch

		case vasm.Ret:
			if fast {
				settleRun(m.Meter, code, runStart, ip)
			}
			v := act.get(in.A)
			m.Meter.Charge(uint64(2 * len(fr.Locals))) // frame teardown
			fr.Stack = fr.Stack[:0]
			fr.Release(m.Env)
			return Outcome{Kind: Returned, Value: v, GuardFails: guardFails,
				EntryPC: act.entryPC}

		case vasm.Exit:
			if fast {
				settleRun(m.Meter, code, runStart, ip)
			}
			exit = m.takeExit(act, in.Ex, SideExit, nil, guardFails)
			goto chain
		case vasm.BindJmp:
			if fast {
				settleRun(m.Meter, code, runStart, ip)
			}
			exit = m.takeExit(act, in.Ex, BindRequest, nil, guardFails)
			exit.BCOff = int(in.I64)
			if exit.Inline == nil {
				fr.PC = exit.BCOff
			}
			goto chain

		default:
			if fast {
				settleRun(m.Meter, code, runStart, ip)
			}
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
			nip = int(starts[in.Target1])
		} else {
			nip = int(starts[in.Target2])
		}
	branch: // control moves to stream index nip
		if fast {
			// Fallthrough coalescing: a branch to the next stream
			// instruction continues the straight-line run — no
			// settlement, no fetch re-probe (DispatchFlags already
			// describe stream-successive lines, and the jump's own
			// cost is inside the prefix sums).
			if nip == ip+1 {
				ip = nip
				continue
			}
			settleRun(m.Meter, code, runStart, ip)
		}
		ip = nip
		runStart, xfer = ip, true
		continue

	guardFail: // the guard at ip failed: its target is a chained block or an exit stub
		guardFails++
		if fast {
			settleRun(m.Meter, code, runStart, ip)
		}
		m.Meter.Charge(guardFailPenalty)
		nip = int(starts[in.Target1])
		if nip >= len(instrs) || instrs[nip].Op != vasm.Exit {
			ip, runStart, xfer = nip, nip, true
			continue
		}
		// An exit stub: a single Exit instruction, the smash site.
		m.Meter.Charge(opCost(vasm.Exit))
		ip = nip
		exit = m.takeExit(act, instrs[ip].Ex, SideExit, nil, guardFails)
	chain: // exit was taken at smash site ip: follow its link or leave
		if nc, cip, ok := m.chainFrom(code, ip, act, &exit, &chained); ok {
			code, ip = nc, cip
			fast, runStart, xfer = code.FastDispatch, cip, true
			instrs, flags, starts, consts = code.Instrs, code.DispatchFlags, code.BlockStart, code.Consts
			continue
		}
		return exit

	throw: // guest error err raised by the instruction at ip
		if fast {
			settleRun(m.Meter, code, runStart, ip)
		}
		return m.throwTo(code, act, in.Target1, err, guardFails)
	}
}

// settleRun charges the static cost of the straight-line stretch
// [runStart, through] in one add (fast dispatch). No-op when the
// stretch is empty (through < runStart).
func settleRun(meter *Meter, code *mcode.Code, runStart, through int) {
	if through >= runStart {
		meter.Cycles += code.CostPrefix[through+1] - code.CostPrefix[runStart]
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
				nc := t.ChainCode()
				m.Meter.Charge(smashedJumpCost + chainGuardCost*uint64(t.ChainGuards()))
				if nc.Chainable && t.ChainMatch(fr) {
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
func (m *Machine) probePropIC(code *mcode.Code, ip int, o *runtime.Object, name string) (int, bool) {
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
	slot, ok := o.Shape.Lookup(name)
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

// throwTo routes a guest error through the instruction's catch stub,
// materializing frame state.
func (m *Machine) throwTo(code *mcode.Code, act *activation, stub int, err error, guardFails int) Outcome {
	var ex *vasm.ExitInfo
	if stub >= 0 {
		if idx := int(code.BlockStart[stub]); idx < len(code.Instrs) && code.Instrs[idx].Op == vasm.Exit {
			ex = code.Instrs[idx].Ex
		}
	}
	return m.takeExit(act, ex, Threw, err, guardFails)
}

// takeExit materializes VM state per the exit descriptor.
func (m *Machine) takeExit(act *activation, ex *vasm.ExitInfo, kind OutcomeKind, err error, guardFails int) Outcome {
	fr := act.fr
	out := Outcome{Kind: kind, Err: err, GuardFails: guardFails, EntryPC: act.entryPC}
	if ex == nil {
		out.BCOff = fr.PC
		fr.Stack = fr.Stack[:0]
		return out
	}
	out.BCOff = ex.BCOff
	if ex.Inline != nil {
		// Materialize the whole chain of inlined callee frames from
		// the extended local slots (Section 5.3.1: side exits can
		// materialize an arbitrary number of callee frames),
		// innermost first. The eval stack of frame i comes from the
		// CallerStackRegs of the context one level in; the innermost
		// frame's stack is the exit's own StackRegs.
		stackFor := func(regs []vasm.Reg) []runtime.Value {
			var s []runtime.Value
			for _, r := range regs {
				s = append(s, act.get(r))
			}
			return s
		}
		innerStack := stackFor(ex.StackRegs)
		innerPC := ex.BCOff
		for ii := ex.Inline; ii != nil; ii = ii.Parent {
			callee := m.Env.Unit.Funcs[ii.FuncID]
			cf := &interp.Frame{Fn: callee, PC: innerPC, Stack: innerStack}
			cf.Locals = make([]runtime.Value, callee.NumLocals)
			for i := 0; i < callee.NumLocals; i++ {
				cf.Locals[i] = fr.Locals[ii.LocalsBase+i]
				fr.Locals[ii.LocalsBase+i] = runtime.Uninit()
			}
			if ii.ThisReg != vasm.InvalidReg {
				if tv := act.get(ii.ThisReg); tv.Kind == types.KObj {
					cf.This = tv.AsObj()
				}
			}
			out.Inline = append(out.Inline, InlineResume{Frame: cf, RetBCOff: ii.RetBCOff})
			// The enclosing frame resumes after this context's call.
			innerStack = stackFor(ii.CallerStackRegs)
			innerPC = ii.RetBCOff
		}
		// The root frame's stack is the outermost caller stack.
		fr.Stack = innerStack
		return out
	}
	fr.Stack = fr.Stack[:0]
	for _, r := range ex.StackRegs {
		fr.Stack = append(fr.Stack, act.get(r))
	}
	fr.PC = ex.BCOff
	return out
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
