// Package core is the public API of the library: compile PHP-subset
// source through the ahead-of-time pipeline (parse → hphpc AST
// optimizer → bytecode emitter → hhbbc bytecode optimizer) and execute
// it on a VM with a configurable JIT (interpreter, tracelet JIT,
// profiling JIT, or the profile-guided region JIT the paper
// describes).
package core

import (
	"io"
	"strings"

	"repro/internal/emitter"
	"repro/internal/hhbbc"
	"repro/internal/hhbc"
	"repro/internal/hphpc"
	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/runtime"
	"repro/internal/vm"
)

// TransFault is the typed error a contained translation fault is
// reported as: the JITed code panicked or hit an internal error, the
// fault was contained, and the region re-executed in the interpreter
// (DESIGN.md §11). Aliased from the machine layer, which cannot
// import core.
type TransFault = machine.TransFault

// Prelude defines the exception hierarchy available to every program,
// mirroring PHP's built-in classes.
const Prelude = `
class Exception {
  public $message = "";
  function __construct($m = "") { $this->message = $m; }
  function getMessage() { return $this->message; }
}
class RuntimeException extends Exception {}
class InvalidArgumentException extends Exception {}
class LogicException extends Exception {}
`

// CompileOptions tune the ahead-of-time pipeline.
type CompileOptions struct {
	// SkipPrelude omits the built-in exception classes (only for
	// programs that define their own).
	SkipPrelude bool
	// SkipHHBBC disables the bytecode-to-bytecode optimizer.
	SkipHHBBC bool
	// SkipASTOpt disables the hphpc-level AST optimizations.
	SkipASTOpt bool
}

// Compile runs source through the full ahead-of-time pipeline and
// returns the deployable bytecode unit.
func Compile(src string, opts CompileOptions) (*hhbc.Unit, error) {
	full := src
	if !opts.SkipPrelude && !strings.Contains(src, "class Exception") {
		full = Prelude + src
	}
	prog, err := parser.Parse(full)
	if err != nil {
		return nil, err
	}
	if !opts.SkipASTOpt {
		hphpc.Optimize(prog)
	}
	unit, err := emitter.Emit(prog)
	if err != nil {
		return nil, err
	}
	if !opts.SkipHHBBC {
		if err := hhbbc.Optimize(unit); err != nil {
			return nil, err
		}
	}
	return unit, nil
}

// Engine wraps a VM running one unit.
type Engine struct {
	VM   *vm.VM
	Unit *hhbc.Unit
}

// NewEngine loads a compiled unit with the given JIT configuration.
func NewEngine(unit *hhbc.Unit, cfg jit.Config, out io.Writer) (*Engine, error) {
	machine, err := vm.New(unit, cfg, out)
	if err != nil {
		return nil, err
	}
	return &Engine{VM: machine, Unit: unit}, nil
}

// Run compiles and executes source in one step, returning its output.
func Run(src string, cfg jit.Config) (string, error) {
	unit, err := Compile(src, CompileOptions{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	eng, err := NewEngine(unit, cfg, &sb)
	if err != nil {
		return "", err
	}
	_, err = eng.VM.RunMain()
	return sb.String(), err
}

// RunRequest executes the unit's pseudo-main once ("one HTTP
// request"), writing guest output to w, and returns the simulated
// cycles consumed.
func (e *Engine) RunRequest(w io.Writer) (cycles uint64, err error) {
	e.VM.SetOut(w)
	before := e.VM.Meter.Cycles
	_, err = e.VM.RunMain()
	return e.VM.Meter.Cycles - before, err
}

// Call invokes a named guest function with host-supplied arguments.
func (e *Engine) Call(name string, args ...runtime.Value) (runtime.Value, error) {
	f, ok := e.Unit.FuncByName(name)
	if !ok {
		return runtime.Null(), runtime.NewError("undefined function %s", name)
	}
	return e.VM.CallFunc(f, nil, args)
}

// Cycles returns total simulated cycles so far.
func (e *Engine) Cycles() uint64 { return e.VM.Meter.Cycles }

// ProfileSnapshot captures the engine's profile state for
// persistence or for jumpstarting another engine.
func (e *Engine) ProfileSnapshot() *jumpstart.Snapshot {
	return e.VM.JIT.SnapshotProfile()
}

// LoadProfile jumpstarts the engine from a persisted profile: in
// region mode it mints profiling translations from the snapshot and
// fires global retranslation immediately, skipping the live profiling
// phase. Functions whose bytecode hash no longer matches the snapshot
// fall back to normal profiling (see the returned result).
func (e *Engine) LoadProfile(s *jumpstart.Snapshot) jit.JumpstartResult {
	return e.VM.JIT.Jumpstart(s)
}

// Stats returns a consistent snapshot of the JIT statistics.
func (e *Engine) Stats() jit.Stats { return e.VM.JIT.Stats() }

// NewWorker creates an additional worker VM sharing this engine's JIT
// (translation cache, profile data, code cache). Workers execute
// requests concurrently; each owns its interpreter state, heap, and
// cycle meter.
func (e *Engine) NewWorker(out io.Writer) *vm.VM {
	return vm.NewWorker(e.VM.JIT, out)
}

// Heap exposes the guest heap counters (refcount activity, COW
// copies, destructor runs) for tests and experiments.
func (e *Engine) Heap() *runtime.Heap { return e.VM.Heap }
