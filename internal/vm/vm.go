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
	v.Machine.Fallback = func(fr *interp.Frame) machine.ChainTarget {
		if tr := v.JIT.Match(fr, v.Meter, true); tr != nil {
			return tr
		}
		return nil
	}
	v.Env.Call = v.CallFunc
	v.Env.OSRCheck = func(fr *interp.Frame) bool {
		return v.JIT.Match(fr, nil, false) != nil || v.JIT.WantsTranslation(fr.Fn, fr)
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
	// The frame is this call's alone: taken from the env's free list
	// here and handed back below, once runFrame has released it.
	// Nothing may keep the pointer past that.
	fr := v.Env.TakeFrame(f, this, args)
	val, first, err := v.runFrame(fr, hint)
	v.Env.PutFrame(fr)
	// Restored, not decremented: a panic in a nested call that an
	// enclosing translation contained (machine.Faulted) skipped the
	// nested calls' own restores.
	v.depth = depth
	return val, first, err
}

// exit records how the previous stretch of an activation ended: what
// the next dispatcher decision is made from.
type exit struct {
	why exitReason
	// hint is the calling site's smashed callee link (why == entered).
	hint machine.ChainTarget
	// bindCode/bindInstr is the smash site the machine exited through:
	// whatever translation the dispatcher picks next for this pc gets
	// smashed into it.
	bindCode  *mcode.Code
	bindInstr int
	// prof is the profiling translation the activation ran last, the
	// source of the TransCFG arc to the next pick.
	prof *jit.Translation
	// bound: the translation ended here on purpose (a bind request, not
	// a side exit), so the address is as hot as the code that led to it.
	bound bool
}

type exitReason uint8

const (
	// resumed: a translation exited having made progress, or an
	// interpreter stretch stopped at an OSR point.
	resumed exitReason = iota
	// entered: the activation has not run yet.
	entered
	// stuck: a translation exited where it started (e.g. its first
	// instruction side exits); one forced interpreter stretch prevents
	// a dispatch livelock.
	stuck
	// faulted: the machine contained a translation fault and rewound
	// the frame to the translation's entry (DESIGN.md §11); the region
	// re-executes in the interpreter.
	faulted
)

// next is the VM's one dispatcher decision: the translation that runs
// now at fr.PC, nil for an interpreter stretch. It also tells the JIT
// everything the decision teaches it: the function entry (which may
// fire retranslation), a contained fault (repeat offenders are demoted
// and unpublished), the smashed exit site, the profiling arc.
func (v *VM) next(fr *interp.Frame, how *exit) *jit.Translation {
	switch how.why {
	case entered:
		v.JIT.OnEntry(v.Meter)
		// A bound call site skips the dispatcher Lookup entirely when the
		// callee prologue translation still matches the fresh frame. On a
		// guard miss the in-cache retranslation cluster is cascaded before
		// falling back to the dispatcher.
		if t, ok := how.hint.(*jit.Translation); ok {
			if t.FuncID != fr.Fn.ID || t.PC != fr.PC || !t.Matches(fr) {
				v.Machine.Chain.ChainMismatches.Add(1)
				t = v.JIT.Match(fr, v.Meter, true)
			}
			if t != nil {
				v.Machine.Chain.ChainedCalls.Add(1)
				return t
			}
		}
	case faulted:
		v.JIT.RecordFault(fr.Fn.ID, fr.PC)
		return nil
	case stuck:
		return nil
	}
	tr := v.JIT.Lookup(fr.Fn, fr, v.Meter, how.bound)
	if tr != nil {
		if how.bindCode != nil {
			// The next transfer through the exit site chains directly.
			v.JIT.Smash(how.bindCode, how.bindInstr, tr)
		}
		v.JIT.RecordArc(how.prof, tr)
	}
	return tr
}

// runFrame drives one activation to completion, alternating between
// JITed code and the interpreter as next decides. The second return
// value is the translation the frame entered first, nil if the first
// stretch ran in the interpreter — callers use it to bind call sites.
func (v *VM) runFrame(fr *interp.Frame, hint machine.ChainTarget) (runtime.Value, machine.ChainTarget, error) {
	var first machine.ChainTarget
	how := exit{why: entered, hint: hint}
	for {
		tr := v.next(fr, &how)
		if tr == nil {
			// Interpret until return, uncaught error, or an OSR point
			// with a usable translation.
			how = exit{}
			before := v.Meter.Cycles
			val, err := v.Env.Run(fr)
			v.JIT.NoteInterpRun(v.Meter.Cycles - before)
			if err == interp.ErrOSR {
				continue
			}
			return val, first, err
		}
		if how.why == entered {
			first = tr
		}
		how = exit{}
		before := v.Meter.Cycles
		if tr.Kind == jit.ModeProfiling {
			how.prof = tr
			// Profiling translations are unchained: every entry goes
			// through the translation-service path.
			v.Meter.Charge(profilingReentryCost)
		}
		out := v.Machine.Exec(&tr.Code, fr)
		v.JIT.NoteMachineExec(tr.Kind, v.Meter.Cycles-before, out.GuardFails)
		if out.Inline != nil {
			v.JIT.NoteInlineExit()
		}
		switch out.Kind {
		case machine.SideExit:
			v.JIT.NoteSideExit()
			how.bindCode, how.bindInstr = out.BindCode, out.BindInstr
		case machine.BindRequest:
			v.JIT.NoteBindRequest()
			v.Meter.Charge(bindDispatchCost)
			how.bound = true
			how.bindCode, how.bindInstr = out.BindCode, out.BindInstr
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
				how.why = stuck
			}
			if out.Inline != nil {
				val, err := v.resumeInlineChain(out.Inline)
				ret := v.putInlineChain(out.Inline)
				if err != nil {
					if herr := v.Env.Unwind(fr, ret-1, err); herr != nil {
						return runtime.Null(), first, herr
					}
					continue
				}
				fr.Stack = append(fr.Stack, val)
				fr.PC = ret
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
				ret := v.putInlineChain(out.Inline)
				if herr := v.Env.Unwind(fr, ret-1, out.Err); herr != nil {
					return runtime.Null(), first, herr
				}
				continue
			}
			if herr := v.Env.Unwind(fr, out.BCOff, out.Err); herr != nil {
				return runtime.Null(), first, herr
			}
			continue
		case machine.Faulted:
			fr.PC = out.BCOff
			how = exit{why: faulted}
			continue
		}
	}
}

// resumeInlineChain finishes a chain of partially-inlined callees in
// the interpreter after a side exit materialized their frames
// (Section 5.3.1). Frames run innermost-out; each return value is
// pushed onto the enclosing frame, which then resumes.
func (v *VM) resumeInlineChain(chain []machine.InlineResume) (runtime.Value, error) {
	val, err := v.runInterp(chain[0].Frame)
	for i := 1; i < len(chain); i++ {
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

// putInlineChain hands a finished chain's frames (released: each ran
// to its end or was released unrun) back to the env's free list and
// the chain to the machine, returning the root's resume pc.
func (v *VM) putInlineChain(chain []machine.InlineResume) int {
	for _, ir := range chain {
		v.Env.PutFrame(ir.Frame)
	}
	ret := chain[len(chain)-1].RetBCOff
	v.Machine.PutInlineChain(chain)
	return ret
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
