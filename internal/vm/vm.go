// Package vm couples the interpreter and the JIT: it dispatches guest
// calls to the best available translation, falls back to
// interpretation, and handles OSR in both directions — side exits out
// of JITed code (including materializing inlined callee frames) and
// re-entry into JITed code at loop back-edges.
package vm

import (
	"io"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/runtime"
)

// VM is one virtual machine instance executing a loaded unit. Worker
// VMs created with NewWorker share a single JIT (translation index,
// profile counters, code cache) but own their interpreter env, heap,
// meter, and machine — the mutable per-request state.
type VM struct {
	Env     *interp.Env
	JIT     *jit.JIT
	Meter   *machine.Meter
	Heap    *runtime.Heap
	Machine *machine.Machine

	// DenyTrans, when set, puts the VM in the sentry's replay mode
	// (DESIGN.md §15): dispatch consults only published translations
	// (FindPublished — no minting, no quarantine churn) and any
	// translation the predicate rejects runs in the interpreter
	// instead. The bisector replays a diverged request with successive
	// disable masks to pin the culprit translation. Replay VMs must
	// also be decoupled from shared link state (private Machine.Epoch,
	// nil Fallback, nil Machine.FI) — see sentry.Monitor.
	DenyTrans func(*jit.Translation) bool

	depth int
}

// New loads a unit with the given JIT configuration.
func New(unit *hhbc.Unit, cfg jit.Config, out io.Writer) (*VM, error) {
	heap := runtime.NewHeap()
	env, err := interp.NewEnv(unit, heap, out)
	if err != nil {
		return nil, err
	}
	meter := &machine.Meter{}
	env.Meter = meter
	v := &VM{Env: env, Heap: heap, Meter: meter}
	v.JIT = jit.New(cfg, env, meter)
	v.wire()
	return v, nil
}

// NewWorker creates an additional VM over an existing JIT: a request
// worker with its own env/heap/meter/machine executing translations
// from the shared index. The worker env shares the primary env's
// linked class table (compiled code embeds *runtime.Class pointers,
// so class identity must be global).
func NewWorker(j *jit.JIT, out io.Writer) *VM {
	heap := runtime.NewHeap()
	env := interp.NewEnvFrom(j.Env, heap, out)
	meter := &machine.Meter{}
	env.Meter = meter
	v := &VM{Env: env, Heap: heap, Meter: meter, JIT: j}
	v.wire()
	return v
}

// wire builds the per-VM machine and hooks the dispatcher into the
// interpreter.
func (v *VM) wire() {
	v.Machine = machine.New(v.Env, v.Meter, v.JIT.Counters, v.JIT.Cache)
	v.Machine.CallGuest = v.call
	v.Machine.Epoch = v.JIT.EpochVar()
	v.Machine.Chain = &v.JIT.Chain
	v.Machine.Shapes = &v.JIT.Shapes
	v.Machine.FI = v.JIT.Cfg.Faults
	v.Machine.Fallback = func(fnID, pc int, fr *interp.Frame) machine.ChainTarget {
		if tr := v.JIT.ChainFallback(fnID, pc, fr, v.Meter); tr != nil {
			return tr
		}
		return nil
	}
	v.Env.Call = v.CallFunc
	v.Env.OSRCheck = func(fr *interp.Frame) bool {
		if v.DenyTrans != nil {
			// Replay mode: OSR only into an already-published, non-denied
			// translation — never bounce out to mint one, and never
			// livelock on a match the mask forbids running.
			tr := v.JIT.FindPublished(fr.Fn, fr, v.Meter)
			return tr != nil && !v.DenyTrans(tr)
		}
		return v.JIT.HasMatch(fr.Fn, fr) || v.JIT.WantsTranslation(fr.Fn, fr)
	}
}

// SetOut redirects guest output (per request).
func (v *VM) SetOut(w io.Writer) { v.Env.Out = w }

// Main returns the pseudo-main function.
func (v *VM) Main() *hhbc.Func { return v.Env.Unit.Funcs[v.Env.Unit.Main] }

// RunMain executes the unit's pseudo-main (one "request").
func (v *VM) RunMain() (runtime.Value, error) {
	return v.CallFunc(v.Main(), nil, nil)
}

// CallFunc is the dispatcher: every guest call (from the interpreter,
// from JITed code, and from the host) lands here.
func (v *VM) CallFunc(f *hhbc.Func, this *runtime.Object, args []runtime.Value) (runtime.Value, error) {
	val, _, err := v.call(f, this, args, nil)
	return val, err
}

// call is the dispatcher body, and the machine's CallGuestFn: guest
// calls issued by JITed code carry the call site's smashed callee link
// as a hint and learn which translation the callee entered first (the
// machine smashes the site with it).
func (v *VM) call(f *hhbc.Func, this *runtime.Object, args []runtime.Value,
	hint machine.ChainTarget) (runtime.Value, machine.ChainTarget, error) {
	depth := v.depth
	if err := v.Env.CheckDepth(depth, args); err != nil {
		return runtime.Null(), nil, err
	}
	v.depth = depth + 1

	// Replay VMs never feed the retranslation trigger: a sentry
	// replay must observe the published code, not advance the entry
	// count or fire OptimizeAll from the comparator goroutine.
	if v.DenyTrans == nil {
		v.JIT.OnEntry()
	}
	// The frame is this call's alone: taken from the env's free list
	// here and handed back below, once runFrame has released it.
	// Nothing may keep the pointer past that.
	fr := v.Env.TakeFrame(f, this, args)
	// A bound call site skips the dispatcher Lookup entirely when the
	// callee prologue translation still matches the fresh frame. On a
	// guard miss the in-cache retranslation cluster is cascaded before
	// falling back to the dispatcher.
	var tr0 *jit.Translation
	if t, ok := hint.(*jit.Translation); ok {
		if t.FuncID == f.ID && t.PC == fr.PC && t.Matches(fr) {
			tr0 = t
		} else {
			v.Machine.Chain.ChainMismatches.Add(1)
			tr0 = v.JIT.ChainFallback(f.ID, fr.PC, fr, v.Meter)
		}
		if tr0 != nil {
			v.Machine.Chain.ChainedCalls.Add(1)
		}
	}
	if v.DenyTrans != nil && tr0 != nil && v.DenyTrans(tr0) {
		tr0 = nil
	}
	val, first, err := v.runFrame(fr, nil, tr0)
	v.Env.PutFrame(fr)
	// Restored, not decremented: a panic in a nested call that an
	// enclosing translation contained (machine.Faulted) skipped the
	// nested calls' own restores.
	v.depth = depth
	return val, first, err
}

// runFrame drives one activation to completion, alternating between
// JITed code and the interpreter. tr0, when non-nil, is a pre-matched
// translation entered without a Lookup (a smashed call link). The
// second return value is the translation the frame entered first, nil
// if the first stretch ran in the interpreter — callers use it to bind
// call sites.
func (v *VM) runFrame(fr *interp.Frame, lastProf, tr0 *jit.Translation) (runtime.Value, machine.ChainTarget, error) {
	// skipJIT forces one interpreter stretch after a translation
	// exits without making progress (e.g. its first instruction side
	// exits), preventing a dispatch livelock.
	skipJIT := false
	var first machine.ChainTarget
	firstIter := true
	// Pending smash site: the BindJmp the previous translation exited
	// through. Whatever translation the dispatcher picks next for this
	// pc gets smashed into it.
	var bindCode *mcode.Code
	var bindInstr int
	for {
		var tr *jit.Translation
		if tr0 != nil {
			tr, tr0 = tr0, nil
		} else if !skipJIT {
			if v.DenyTrans != nil {
				// Replay mode: published translations only, minus the
				// disable mask. A denied match interprets — the
				// interpreter is the semantic anchor the mask is being
				// bisected against.
				if tr = v.JIT.FindPublished(fr.Fn, fr, v.Meter); tr != nil && v.DenyTrans(tr) {
					tr = nil
				}
			} else {
				tr = v.JIT.Lookup(fr.Fn, fr, v.Meter)
			}
		}
		skipJIT = false
		if tr == nil {
			bindCode = nil
			// Interpret until return, uncaught error, or an OSR point
			// with a usable translation.
			firstIter = false
			before := v.Meter.Cycles
			val, err := v.Env.Run(fr)
			v.JIT.NoteInterpRun(v.Meter.Cycles - before)
			if err == interp.ErrOSR {
				lastProf = nil
				continue
			}
			return val, first, err
		}
		if firstIter {
			first = tr
			firstIter = false
		}
		if bindCode != nil {
			// Smash the exit site of the previous translation with the
			// dispatcher's pick: the next transfer chains directly.
			// Replay VMs never smash — a replay must observe shared code
			// state, not perturb it.
			if v.DenyTrans == nil {
				v.JIT.Smash(bindCode, bindInstr, tr)
			}
			bindCode = nil
		}
		if lastProf != nil && v.DenyTrans == nil {
			v.JIT.RecordArc(lastProf, tr)
		}
		if tr.Kind == jit.ModeProfiling {
			lastProf = tr
		} else {
			lastProf = nil
		}

		before := v.Meter.Cycles
		if tr.Kind == jit.ModeProfiling {
			// Profiling translations are unchained: every entry goes
			// through the translation-service path.
			v.Meter.Charge(profilingReentryCost)
		}
		out := v.Machine.Exec(tr.Code, fr)
		v.JIT.NoteMachineExec(tr.Kind, v.Meter.Cycles-before, out.GuardFails)
		switch out.Kind {
		case machine.SideExit:
			v.JIT.NoteSideExit()
			bindCode, bindInstr = out.BindCode, out.BindInstr
		case machine.BindRequest:
			v.JIT.NoteBindRequest()
			v.Meter.Charge(bindDispatchCost)
			bindCode, bindInstr = out.BindCode, out.BindInstr
		}
		switch out.Kind {
		case machine.Returned:
			return out.Value, first, nil
		case machine.SideExit, machine.BindRequest:
			// With chaining one Exec traverses many translations;
			// EntryPC is the entry pc of the last one entered, so the
			// no-progress check still catches a translation that exits
			// where it started.
			if out.Inline == nil && out.BCOff == out.EntryPC {
				skipJIT = true
			}
			if out.Inline != nil {
				val, err := v.resumeInlineChain(out.Inline, 0)
				root := out.Inline[len(out.Inline)-1]
				if err != nil {
					if herr := v.Env.Unwind(fr, root.RetBCOff-1, err); herr != nil {
						return runtime.Null(), first, herr
					}
					continue
				}
				fr.Stack = append(fr.Stack, val)
				fr.PC = root.RetBCOff
				continue
			}
			fr.PC = out.BCOff
			continue
		case machine.Threw:
			if out.Inline != nil {
				// Inlined callees have no handlers (inlining policy);
				// release the materialized frames and unwind in the
				// root caller at the outermost call site.
				for _, ir := range out.Inline {
					ir.Frame.Release(v.Env)
				}
				root := out.Inline[len(out.Inline)-1]
				if herr := v.Env.Unwind(fr, root.RetBCOff-1, out.Err); herr != nil {
					return runtime.Null(), first, herr
				}
				continue
			}
			if herr := v.Env.Unwind(fr, out.BCOff, out.Err); herr != nil {
				return runtime.Null(), first, herr
			}
			continue
		case machine.Faulted:
			// Contained translation fault (DESIGN.md §11): the machine
			// caught a panic or internal error and rewound the frame to
			// the translation's entry. Record it (repeat offenders are
			// demoted and unpublished), then re-execute the region in the
			// interpreter so the request completes with identical
			// semantics. One forced interpreter stretch avoids bouncing
			// straight back into the same translation. Replays observe,
			// never adjudicate: a fault during a sentry replay is not
			// charged against the address.
			if v.DenyTrans == nil {
				v.JIT.RecordFault(fr.Fn.ID, out.BCOff)
			}
			fr.PC = out.BCOff
			skipJIT = true
			lastProf = nil
			bindCode = nil
			continue
		}
	}
}

// resumeInlineChain finishes a chain of partially-inlined callees in
// the interpreter after a side exit materialized their frames
// (Section 5.3.1). Frames run innermost-out; each return value is
// pushed onto the enclosing frame, which then resumes.
func (v *VM) resumeInlineChain(chain []machine.InlineResume, from int) (runtime.Value, error) {
	val, err := v.runInterp(chain[from].Frame)
	for i := from + 1; i < len(chain); i++ {
		if err != nil {
			// No handlers inside inlined code (inlining policy):
			// release the remaining frames and propagate.
			chain[i].Frame.Release(v.Env)
			continue
		}
		cf := chain[i].Frame
		cf.Stack = append(cf.Stack, val)
		cf.PC = chain[i-1].RetBCOff
		val, err = v.runInterp(cf)
	}
	return val, err
}

// runInterp drives one frame in the interpreter, swallowing OSR
// bounces (inline-resume frames never re-enter JITed code).
func (v *VM) runInterp(fr *interp.Frame) (runtime.Value, error) {
	val, err := v.Env.Run(fr)
	for err == interp.ErrOSR {
		val, err = v.Env.Run(fr)
	}
	return val, err
}

// profilingReentryCost models the unchained dispatch of profiling
// translations (they always bounce through the service request path).
const profilingReentryCost = 30

// bindDispatchCost models the translation-to-translation transfer
// through a (smashed) service request when a translation ends in a
// bind rather than an intra-region jump.
const bindDispatchCost = 7
