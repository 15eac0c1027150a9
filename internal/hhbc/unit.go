package hhbc

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/runtime"
	"repro/internal/types"
)

// Instr is one decoded bytecode instruction. PC values are indices
// into Func.Instrs. A/B/C are immediates whose meaning depends on Op
// (see opcodes.go).
type Instr struct {
	Op      Op
	A, B, C int32
}

// imm returns immediate i (0 = A, 1 = B, 2 = C), immPtr its address.
func (in Instr) imm(i int) int32      { return [3]int32{in.A, in.B, in.C}[i] }
func (in *Instr) immPtr(i int) *int32 { return [3]*int32{&in.A, &in.B, &in.C}[i] }

// NumPop returns how many cells the instruction pops, NumPush how
// many it pushes.
func (in Instr) NumPop() int {
	switch p := in.Op.info().pops; p {
	case popsA:
		return int(in.A)
	case popsA1:
		return int(in.A) + 1
	default:
		return int(p)
	}
}

func (in Instr) NumPush() int { return int(in.Op.info().pushes) }

// LocalSlot returns the local the instruction names (a parameter
// index is that parameter's slot), or -1.
func (in Instr) LocalSlot() int {
	for i, k := range in.Op.info().imm {
		if k == ImmLocal || k == ImmParam {
			return int(in.imm(i))
		}
	}
	return -1
}

// RemapTargets rewrites the instruction's jump targets through newPC
// (old pc -> new pc), for passes that insert or delete instructions.
// Switch tables live in the Func and are the caller's to remap.
func (in *Instr) RemapTargets(newPC []int) {
	for i, k := range in.Op.info().imm {
		if k == ImmTarget {
			*in.immPtr(i) = int32(newPC[in.imm(i)])
		}
	}
}

func (in Instr) String() string {
	s := in.Op.String()
	for i, k := range in.Op.info().imm {
		if k != ImmNone {
			s += fmt.Sprintf(" %d", in.imm(i))
		}
	}
	return s
}

// Param describes a function parameter.
type Param struct {
	Name string
	// TypeHint is the shallow runtime-checked hint ("" = none). Like
	// HHVM, only shallow hints are enforced; deeper Hack hints are
	// discarded by the runtime.
	TypeHint string
	Nullable bool
	// HasDefault + Default: optional parameter default (uncounted
	// literal kinds only).
	HasDefault  bool
	DefaultKind types.Kind
	DefaultInt  int64
	DefaultDbl  float64
	DefaultStr  string
}

// EHEnt is an exception-handler table entry: bytecode range
// [Start,End) is protected by the handler at Handler.
type EHEnt struct {
	Start, End, Handler int
}

// SwitchTable is the jump table for OpSwitch: Base + i indexes into
// Targets, with Default for out-of-range.
type SwitchTable struct {
	Base    int64
	Targets []int
	Default int
}

// Func is a compiled guest function or method.
type Func struct {
	ID   int // dense unit-wide ID
	Name string
	// Class is "" for free functions; methods are named Class::name.
	Class     string
	IsMethod  bool
	Params    []Param
	NumLocals int // params first, then locals
	LocalName []string
	Instrs    []Instr
	EHTable   []EHEnt
	Switches  []SwitchTable
}

// ForEachSuccessor calls fn with each explicit branch target of the
// instruction at pc, in immediate order (a switch's targets, then its
// default), and reports whether control can also fall through to
// pc+1. Exception edges are not successors; see HandlerFor.
func (f *Func) ForEachSuccessor(pc int, fn func(target int)) (fallsThrough bool) {
	in := f.Instrs[pc]
	info := in.Op.info()
	for i, k := range info.imm {
		switch k {
		case ImmTarget:
			fn(int(in.imm(i)))
		case ImmSwitch:
			sw := &f.Switches[in.imm(i)]
			for _, t := range sw.Targets {
				fn(t)
			}
			fn(sw.Default)
		}
	}
	return info.flags&noFall == 0
}

// HandlerFor returns the innermost handler covering pc, or -1.
func (f *Func) HandlerFor(pc int) int {
	best := -1
	bestSize := 1 << 30
	for _, eh := range f.EHTable {
		if pc >= eh.Start && pc < eh.End && eh.End-eh.Start < bestSize {
			best = eh.Handler
			bestSize = eh.End - eh.Start
		}
	}
	return best
}

// FullName returns Class::Name for methods, Name otherwise.
func (f *Func) FullName() string {
	if f.Class != "" {
		return f.Class + "::" + f.Name
	}
	return f.Name
}

// LocalLabel names local slot i in guest-facing diagnostics.
func (f *Func) LocalLabel(i int32) string {
	if int(i) < len(f.LocalName) {
		return f.LocalName[i]
	}
	return fmt.Sprintf("<%d>", i)
}

// PropDef is a class property definition.
type PropDef struct {
	Name        string
	DefaultKind types.Kind
	DefaultInt  int64
	DefaultDbl  float64
	DefaultStr  string
}

// ClassDef is the bytecode-level class. The VM links it into a
// runtime.Class at load time.
type ClassDef struct {
	Name    string
	Parent  string
	Ifaces  []string
	Props   []PropDef
	Methods map[string]int // lowercase method name -> Func.ID
	HasDtor bool
}

// Unit is a compiled compilation unit (one source file / program):
// the deployment artifact produced ahead of time.
type Unit struct {
	Funcs   []*Func
	Classes []*ClassDef
	// Pools referenced by instruction immediates.
	Strings []string
	Ints    []int64
	Doubles []float64

	// Main is the ID of the pseudo-main function.
	Main int

	funcByName map[string]int
	strIndex   map[string]int
}

// NewUnit returns an empty unit.
func NewUnit() *Unit {
	return &Unit{Main: -1, funcByName: map[string]int{}, strIndex: map[string]int{}}
}

// AddFunc appends f, assigns its ID, and indexes its name.
func (u *Unit) AddFunc(f *Func) int {
	f.ID = len(u.Funcs)
	u.Funcs = append(u.Funcs, f)
	u.funcByName[strings.ToLower(f.FullName())] = f.ID
	return f.ID
}

// FuncByName resolves a (case-insensitive) function name.
func (u *Unit) FuncByName(name string) (*Func, bool) {
	id, ok := runtime.LookupFold(u.funcByName, name)
	if !ok {
		return nil, false
	}
	return u.Funcs[id], true
}

// InternString adds s to the string pool, deduplicated.
func (u *Unit) InternString(s string) int32 {
	if i, ok := u.strIndex[s]; ok {
		return int32(i)
	}
	u.strIndex[s] = len(u.Strings)
	u.Strings = append(u.Strings, s)
	return int32(len(u.Strings) - 1)
}

// InternInt and InternDouble add literals to the pools.
func (u *Unit) InternInt(v int64) int32 {
	for i, x := range u.Ints {
		if x == v {
			return int32(i)
		}
	}
	u.Ints = append(u.Ints, v)
	return int32(len(u.Ints) - 1)
}

// InternDouble adds v to the double pool, deduplicated by bit pattern
// (-0.0 is not 0.0, and NaNs are found again).
func (u *Unit) InternDouble(v float64) int32 {
	for i, x := range u.Doubles {
		if math.Float64bits(x) == math.Float64bits(v) {
			return int32(i)
		}
	}
	u.Doubles = append(u.Doubles, v)
	return int32(len(u.Doubles) - 1)
}

// ReindexNames rebuilds the name index (after decoding).
func (u *Unit) ReindexNames() {
	u.funcByName = make(map[string]int, len(u.Funcs))
	for _, f := range u.Funcs {
		u.funcByName[strings.ToLower(f.FullName())] = f.ID
	}
	u.strIndex = make(map[string]int, len(u.Strings))
	for i, s := range u.Strings {
		u.strIndex[s] = i
	}
}
