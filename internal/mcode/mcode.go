// Package mcode implements the simulated code cache: assembly of
// laid-out Vasm into addressed, executable code, allocation of
// hot/cold/frozen areas, relocation (used when optimized translations
// are published in function-sorted order), and huge-page mapping of the
// hot area.
package mcode

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/hhir"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// ErrCacheFull reports genuine code-cache exhaustion (the byte budget
// would be exceeded). The JIT distinguishes it from transient injected
// allocation failures: only real exhaustion triggers cache recycling.
var ErrCacheFull = errors.New("code cache full")

// Code is one assembled translation: the executable instruction stream
// (Instr, encode.go) in layout order with per-instruction addresses.
//
// A code lives as long as its translation, so what it keeps is a few
// arrays of exactly the right size, one per element type: the stream,
// the exit descriptors, the inline frames, the constants, the checks,
// the link slots — and the metadata, one pointer-free []int32 of which
// Addr, CostPrefix, DispatchFlags, Sites, Regs, JumpTargets, FetchTails
// and the per-instruction link-slot index are capacity-capped windows.
// Assemble sizes that array for everything machine.PrepareDispatch
// fills in after Place, so neither allocates per table.
type Code struct {
	Instrs []Instr
	// Addr[i] is the address of Instrs[i] relative to Base (AddrOf).
	// A translation's relative addresses fit in 32 bits: Assemble fails
	// one that does not.
	Addr []int32
	// Regs holds the value-file indexes of every register list the
	// stream names — operand lists, exit stacks, inline frames' caller
	// stacks — each a window an instruction, Exit or Inline points at.
	Regs []int32
	// JumpTargets holds every JmpTable's entries as stream indexes, one
	// window per instruction: the table's targets, then its default.
	JumpTargets []int32
	// Exits and Inlines are the exit descriptors Exit and BindJmp index
	// and the inline frames they materialize.
	Exits   []Exit
	Inlines []Inline
	// Consts is the constant pool, materialized, strings already
	// interned: one entry per unit constant, then the string operands
	// (Str). Assemble orders the constants: first the NumSlots distinct
	// values operands carry, in the order the stream first reads them,
	// so that constant slot i holds Consts[i] (ConstBase): equal
	// constants share a slot; then those only an LdImm reads, which are
	// never copied into the value file; then, unused, one entry for each
	// constant that shares a slot. An LdImm's I64 is its constant's
	// index here.
	Consts []runtime.Value
	// Checks holds the translation's type guards, each compiled once:
	// Checks[i] tests entry precondition i (vasm.Unit.Entry), and every
	// GuardKind or LdLocGK carries the index of its own in T2.
	Checks []runtime.Check
	// Builtins holds the natives this translation calls: a CallBuiltin
	// whose name resolved carries its 1-based index here in I64 (0 =
	// unresolved, the machine falls back to a guest function of that
	// name).
	Builtins []*runtime.Builtin
	// NumSpills and NumSlots (the constants operands carry) size the
	// activation's value file (NumValues), ExtSlots its extended frame.
	NumSpills int
	NumSlots  int
	ExtSlots  int
	// Alloc is the unit's register-allocation summary, ElidedJumps the
	// number of fallthrough jumps Assemble left out of the stream, Guards
	// what the HHIR builder did about the region's preconditions and
	// Loads what the optimizer did to its frame loads (both set by the
	// JIT; diagnostics: the jit.Debug dump, `hhvm -stats`).
	Alloc       vasm.AllocStats
	ElidedJumps int
	Guards      hhir.BuildStats
	Loads       hhir.OptStats

	// Base and Size give the translation's placement.
	Base uint64
	Size uint64

	// The dispatch tables, filled in by machine.PrepareDispatch after
	// Place. CostPrefix[i] is the summed static cost of Instrs[:i]
	// (length len(Instrs)+1): the cost of the stream stretch [a, b] is
	// CostPrefix[b+1]-CostPrefix[a]. A translation's summed cost fits
	// in 32 bits as its size does.
	CostPrefix []int32
	// DispatchFlags[i] packs the per-instruction fetch metadata into
	// one word so dispatch pays a single load per instruction:
	// FlagFetchHead means Instrs[i] starts on a different icache line
	// than the last component of its stream predecessor (a
	// straight-line fall-into needs a fetch probe; control transfers
	// always probe), FlagFetchTails that Instrs[i] has fetch tails,
	// which start at FetchTails[DispatchFlags[i]>>FlagBits].
	DispatchFlags []int32
	// FetchTails lists, for each fused instruction that has any, the
	// relative addresses of its second-and-later components that begin
	// a new icache line relative to the component before them, as
	// (instruction index, address) pairs in stream order. Assemble
	// reserves room for every fused component; PrepareDispatch keeps
	// only the ones that begin a line.
	FetchTails []int32

	// Chainable marks translations that participate in direct
	// chaining: their smash sites may be bound and they may be chained
	// into. Profiling translations are never chainable (every entry
	// must go through the dispatcher so counters and arcs are
	// recorded), and the JIT clears it globally when chaining is
	// disabled.
	Chainable bool
	// Profiling marks profiling translations. They alone record the
	// call-graph arcs of the guest calls they make: every other profile
	// counter is an instruction only profiling code carries, and C3
	// reads the arcs once, when the optimized code is laid out.
	Profiling bool
	// EndLocals and EndStack are what the code knows of the frame at
	// every bind jump it has, when all of them leave from one point
	// (hhir.Unit.EndLocals): a chained transfer out of one need not
	// re-check what they prove of the target's preconditions.
	EndLocals, EndStack []types.Type
	// Sites lists the smash sites — the smashable instructions (bind
	// jumps and direct call sites) — by stream index; links[k] is the
	// published direct target of site k, nil until the first transfer
	// resolves it, and slotOf[i] is k for the instruction at Sites[k]
	// (-1 for any other; empty when the code has no site). Slots are
	// read lock-free by every worker on the hot path and overwritten
	// wholesale by smashing/sweeping, never mutated.
	Sites  []int32
	slotOf []int32
	links  []atomic.Pointer[Link]

	// entry is the stream index of vasm block 0's first instruction.
	entry int32
}

// DispatchFlags bits (see Code.DispatchFlags); the bits above FlagBits
// hold where an instruction's fetch tails start.
const (
	FlagFetchHead  int32 = 1 << 0
	FlagFetchTails int32 = 1 << 1
	FlagBits             = 2
)

// Link is one smashed jump or call site's published target: a direct
// transfer into a successor translation that bypasses the dispatcher.
// Epoch stamps the translation-index version the link was resolved
// against; followers must revalidate it and fall back to the dispatch
// path when stale. Target is opaque at this layer (the machine layer
// type-asserts it to its ChainTarget interface).
type Link struct {
	Epoch  uint64
	Target any
}

// slot returns the link slot of smash site i, nil if i is not one.
func (c *Code) slot(i int) *atomic.Pointer[Link] {
	if i < 0 || i >= len(c.slotOf) {
		return nil
	}
	if k := c.slotOf[i]; k >= 0 {
		return &c.links[k]
	}
	return nil
}

// LoadLink returns the published link of smash site i (nil if the
// site is unbound or i has no slot). Lock-free.
func (c *Code) LoadLink(i int) *Link {
	if s := c.slot(i); s != nil {
		return s.Load()
	}
	return nil
}

// StoreLink smashes site i to l. Storing nil unbinds the site.
func (c *Code) StoreLink(i int, l *Link) {
	if s := c.slot(i); s != nil {
		s.Store(l)
	}
}

// SweepLinks clears every link whose epoch differs from epoch (the
// treadmill pass run after an index republish) and returns the number
// of links cleared.
func (c *Code) SweepLinks(epoch uint64) int {
	cleared := 0
	for k := range c.links {
		if l := c.links[k].Load(); l != nil && l.Epoch != epoch {
			c.links[k].Store(nil)
			cleared++
		}
	}
	return cleared
}

// ForEachLink visits every bound smash site (diagnostics and the
// invalidation tests).
func (c *Code) ForEachLink(fn func(instr int, l *Link)) {
	for k := range c.links {
		if l := c.links[k].Load(); l != nil {
			fn(int(c.Sites[k]), l)
		}
	}
}

// opSize models encoded instruction sizes (bytes) for address
// assignment; the values approximate x86-64 encodings.
func opSize(op vasm.Op) uint64 {
	switch op {
	case vasm.Nop:
		return 0
	case vasm.Jmp:
		return 5
	case vasm.Jcc:
		return 6
	case vasm.JmpTable:
		return 14 // bounds check + indexed load + indirect jump
	case vasm.LdImm:
		return 10 // a cell: type byte + imm64
	case vasm.Copy:
		return 3
	case vasm.LdLoc, vasm.StLoc, vasm.LdStk, vasm.Spill, vasm.Reload:
		return 8 // 16-byte cell moves
	case vasm.GuardKind, vasm.GuardCls, vasm.GuardShape:
		return 10 // cmp + jcc
	case vasm.IncRef, vasm.DecRef:
		return 12 // check + inc/dec + branch
	case vasm.Helper:
		return 14 // arg moves + call
	case vasm.CallFunc, vasm.CallMethodD, vasm.CallMethodC, vasm.CallBuiltin:
		return 20
	case vasm.Ret:
		return 8
	case vasm.Exit, vasm.BindJmp:
		return 16
	case vasm.CountInc, vasm.ProfCallSite, vasm.ProfPropShape:
		return 7
	case vasm.LdPropIC, vasm.StPropIC:
		return 20 // shape load + cache probe + slot access

	case vasm.ArrCount, vasm.LdProp, vasm.StProp, vasm.LdThis:
		return 8
	case vasm.ArrGetPkI:
		return 14
	default:
		return 5 // ALU ops
	}
}

// immSize is the encoded size of op, one with an immediate form
// (vasm.Op.HasImmForm), when one of its operands is a constant
// (Instr.Imm), after x86-64's immediate forms: a local store or a
// return of an immediate cell carries a type byte and an imm32 value, 4
// bytes more than a cell move; an int ALU op with an imm32 is 2 bytes
// longer than its register form. A constant in an operand list adds
// nothing: a helper's or call's size already counts its argument moves.
func immSize(op vasm.Op) uint64 {
	switch op {
	case vasm.StLoc, vasm.Ret:
		return opSize(op) + 4
	}
	return opSize(op) + 2
}

// componentSize is the encoded size of one of in's components.
func componentSize(in *Instr, op vasm.Op) uint64 {
	if in.Imm {
		return immSize(op)
	}
	return opSize(op)
}

// ForEachComponent calls fn with every ordinary op the instruction
// performs (vasm.Instr.ForEachComponent): its own, or a
// superinstruction's components in order, the N-ary forms' once per
// register of their window.
func (in *Instr) ForEachComponent(fn func(vasm.Op)) {
	parts := in.Op.Components()
	switch {
	case parts == nil:
		fn(in.Op)
	case len(parts) == 1:
		for range in.N {
			fn(parts[0])
		}
	default:
		for _, o := range parts {
			fn(o)
		}
	}
}

// instrSize is the encoded size of in, fixed when it is assembled. A
// superinstruction keeps its components' encodings back-to-back, so
// addresses are unchanged by fusion. (A jump the layout turned into a
// fallthrough has none, and is not in the stream.)
func instrSize(in *Instr) uint64 {
	var sz uint64
	in.ForEachComponent(func(op vasm.Op) { sz += componentSize(in, op) })
	return sz
}

// ComponentSizes appends to buf[:0] the encoded byte size of each
// component of in — one element for ordinary instructions, one per
// fused component for superinstructions — and returns it. The fetch
// model consumes these so a fused stream touches exactly the icache
// lines the unfused stream did; a caller that passes the previous
// result back as buf allocates nothing once it is large enough.
func ComponentSizes(in *Instr, buf []uint64) []uint64 {
	sizes := buf[:0]
	if in.Op.Components() == nil {
		return append(sizes, instrSize(in))
	}
	in.ForEachComponent(func(op vasm.Op) { sizes = append(sizes, componentSize(in, op)) })
	return sizes
}

// AssembleError reports a malformed instruction stream: an operand
// that names something the unit does not have. The compile fails with
// it, the address is quarantined, and the process keeps serving from
// the interpreter (DESIGN.md §11) — the alternative is a translation
// that misbehaves at run time.
type AssembleError struct {
	// Index and Op locate the offending instruction in the flattened
	// stream.
	Index  int
	Op     vasm.Op
	Reason string
}

func (e *AssembleError) Error() string {
	return fmt.Sprintf("mcode: %s at #%d: %s", e.Op, e.Index, e.Reason)
}

// Assemble flattens a laid-out, register-allocated unit into new code
// (AssembleInto).
func Assemble(u *vasm.Unit) (*Code, error) {
	c := new(Code)
	if err := AssembleInto(c, u); err != nil {
		return nil, err
	}
	return c, nil
}

// AssembleInto flattens a laid-out, register-allocated unit into c,
// replacing whatever c held, and encodes it into the executable form
// (Instr): everything the machine would otherwise look up by key per
// executed instruction is resolved — registers to value-file indexes,
// block ids to stream indexes, immediates to guest values (Consts),
// entry preconditions and guard types to compiled checks against the
// unit's classes (Checks), builtin names to natives (Builtins), the
// classes `new` names to their IDs. Addresses are relative to 0 until
// Place assigns a base. What has no bytes in the encoding is not in the
// stream either: a jump the layout turned into a fallthrough is dropped
// here, so it is neither dispatched nor charged (a block it empties
// starts where the next one does). A malformed stream — an immediate
// index past the constant pool, a branch, jump-table entry or stub
// reference to a block the layout does not contain, a register operand
// that is neither a machine register nor a spill slot of this unit — or
// one whose register, window or index does not fit its field is an
// *AssembleError, not a panic and not a translation that silently
// restarts itself.
//
// Everything c keeps is its own: the unit's operand lists, exit
// descriptors and jump tables are recycled with it (vasm.Release), so
// their contents are encoded into arrays sized exactly by a first walk.
func AssembleInto(c *Code, u *vasm.Unit) error {
	order := u.Order()
	*c = Code{NumSpills: u.NumSpills, ExtSlots: u.ExtFrameSlots, Alloc: u.Alloc}
	scratch := assembleScratch.Get().(*[]int32)
	defer assembleScratch.Put(scratch)
	nb := len(u.Blocks)
	*scratch = slices.Grow((*scratch)[:0], nb+len(u.Imms))[:nb+len(u.Imms)]
	slotOf := (*scratch)[nb:]
	clear(slotOf)
	sz := sizes{checks: len(u.Entry), starts: (*scratch)[:nb:nb]}
	if err := sz.walk(u, order); err != nil {
		return err
	}
	n := sz.instrs
	c.Instrs = make([]Instr, 0, n)
	if sz.checks > 0 {
		c.Checks = make([]runtime.Check, 0, sz.checks)
	}
	if sz.builtins > 0 {
		c.Builtins = make([]*runtime.Builtin, 0, sz.builtins)
	}
	if sz.exits > 0 {
		c.Exits = make([]Exit, 0, sz.exits)
	}
	if sz.inlines > 0 {
		c.Inlines = make([]Inline, 0, sz.inlines)
	}
	if k := len(u.Imms) + sz.strs; k > 0 {
		c.Consts = make([]runtime.Value, len(u.Imms), k)
	}
	// The metadata: Addr, CostPrefix, DispatchFlags and the link-slot
	// index per instruction (the last only with smash sites), then Sites,
	// Regs, JumpTargets and room for every fetch tail.
	slots := 0
	if sz.sites > 0 {
		slots = n
	}
	meta := make([]int32, 3*n+1+slots+sz.sites+sz.regs+sz.jumps+2*sz.tails)
	cut := func(k int) []int32 {
		w := meta[:k:k]
		meta = meta[k:]
		return w
	}
	c.Addr = cut(n)[:0]
	c.CostPrefix = cut(n + 1)
	c.DispatchFlags = cut(n)
	c.slotOf = cut(slots)
	c.Sites = cut(sz.sites)[:0]
	c.Regs = cut(sz.regs)[:0]
	c.JumpTargets = cut(sz.jumps)[:0]
	c.FetchTails = meta[:0]
	for _, g := range u.Entry {
		c.Checks = append(c.Checks, runtime.NewCheck(g.Type, u.Classes))
	}
	if len(sz.starts) > 0 {
		c.entry = sz.starts[0]
	}
	var err error
	a := assembler{c: c, u: u, starts: sz.starts, slotOf: slotOf, err: &err}
	var off uint64
	for _, bi := range order {
		b := u.Blocks[bi]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if elided(in) {
				c.ElidedJumps++
				continue
			}
			at := len(c.Instrs)
			c.Instrs = append(c.Instrs, a.encode(at, in))
			if err != nil {
				return err
			}
			// Smash-site identity: any smashable instruction (bind jumps
			// and direct call sites) gets a stable link slot addressed by
			// its index in the flattened stream.
			if slots > 0 {
				c.slotOf[at] = -1
				if in.Op.Smashable() {
					c.slotOf[at] = int32(len(c.Sites))
					c.Sites = append(c.Sites, int32(at))
				}
			}
			c.Addr = append(c.Addr, int32(off))
			off += instrSize(&c.Instrs[at])
		}
	}
	// The constants: the operands put theirs in slots 0..NumSlots-1; the
	// rest follow, and each LdImm reads its constant's new index.
	next := int32(c.NumSlots)
	for k, iv := range u.Imms {
		if slotOf[k] == 0 {
			next++
			slotOf[k] = next
			c.Consts[next-1] = constValue(iv)
		}
	}
	for i := range c.Instrs {
		if in := &c.Instrs[i]; in.Op == vasm.LdImm {
			in.I64 = int64(slotOf[in.I64] - 1)
		}
	}
	// Jump tables live in the translation's rodata: count them into
	// the footprint (8 bytes per entry).
	for _, tbl := range u.Tables {
		off += uint64(8 * (len(tbl.Targets) + 1))
	}
	if off > math.MaxInt32 {
		return &AssembleError{Index: n - 1, Op: c.Instrs[n-1].Op,
			Reason: fmt.Sprintf("%d bytes of code: relative addresses past 32 bits", off)}
	}
	c.Size = off
	if sz.sites > 0 {
		c.links = make([]atomic.Pointer[Link], sz.sites)
	}
	return nil
}

// assembleScratch recycles what AssembleInto resolves operands through,
// dead once the code is encoded: the block-to-stream-index map, then the
// constant-to-slot map.
var assembleScratch = sync.Pool{New: func() any { return new([]int32) }}

// sizes counts what a unit's stream keeps, for AssembleInto to size
// each array once, and maps its blocks to stream indexes.
type sizes struct {
	instrs, regs, jumps, strs, checks, builtins, exits, inlines, sites int
	// tails bounds the fetch tails: one per second-or-later component
	// of a superinstruction.
	tails int
	// starts[b] is the stream index of block b's first instruction (-1
	// for a block the layout dropped).
	starts []int32
}

// walk sizes the unit's stream in layout order.
func (sz *sizes) walk(u *vasm.Unit, order []int) error {
	for i := range sz.starts {
		sz.starts[i] = -1
	}
	for _, bi := range order {
		// An empty block starts where the next one does (past the end
		// of the stream for trailing ones).
		sz.starts[bi] = int32(sz.instrs)
		for i := range u.Blocks[bi].Instrs {
			if err := sz.add(u, &u.Blocks[bi].Instrs[i]); err != nil {
				return err
			}
		}
	}
	if sz.regs > math.MaxInt32 || sz.jumps > math.MaxInt32 {
		return &AssembleError{Index: sz.instrs - 1, Reason: fmt.Sprintf(
			"%d registers and %d jump-table entries in lists: windows past 32 bits", sz.regs, sz.jumps)}
	}
	return nil
}

func (sz *sizes) add(u *vasm.Unit, in *vasm.Instr) error {
	if typeGuard(in.Op) {
		sz.checks++
	}
	if elided(in) {
		return nil
	}
	at := sz.instrs
	sz.instrs++
	if len(in.Args) > math.MaxUint16 {
		return &AssembleError{Index: at, Op: in.Op,
			Reason: fmt.Sprintf("%d operands: a window holds at most %d", len(in.Args), math.MaxUint16)}
	}
	sz.regs += len(in.Args)
	if in.Str != "" {
		sz.strs++
	}
	if in.Op == vasm.CallBuiltin {
		sz.builtins++
	}
	if in.Op.Smashable() {
		sz.sites++
	}
	if in.Op.Components() != nil {
		in.ForEachComponent(func(vasm.Op) { sz.tails++ })
		sz.tails--
	}
	if in.Op == vasm.JmpTable {
		if in.I64 < 0 || in.I64 >= int64(len(u.Tables)) {
			return &AssembleError{Index: at, Op: in.Op,
				Reason: fmt.Sprintf("jump table #%d out of range (%d tables)", in.I64, len(u.Tables))}
		}
		k := len(u.Tables[in.I64].Targets) + 1
		if k > math.MaxUint16 {
			return &AssembleError{Index: at, Op: in.Op,
				Reason: fmt.Sprintf("%d jump-table entries: a window holds at most %d", k, math.MaxUint16)}
		}
		sz.jumps += k
	}
	if ex := in.Ex; ex != nil {
		sz.exits++
		sz.regs += len(ex.StackRegs)
		for ii := ex.Inline; ii != nil; ii = ii.Parent {
			sz.inlines++
			sz.regs += len(ii.CallerStackRegs)
		}
	}
	return nil
}

// elided reports a jump the layout turned into a fallthrough.
func elided(in *vasm.Instr) bool { return in.Op == vasm.Jmp && in.I64&1 != 0 }

// typeGuard reports the ops that test a value against a guard type.
func typeGuard(op vasm.Op) bool { return op == vasm.GuardKind || op == vasm.LdLocGK }

// constValue materializes one constant-pool entry.
func constValue(iv vasm.ImmValue) runtime.Value {
	switch iv.Kind {
	case types.KInt:
		return runtime.Int(iv.I)
	case types.KDbl:
		return runtime.Dbl(iv.D)
	case types.KBool:
		return runtime.Bool(iv.I != 0)
	case types.KStr:
		return runtime.StrV(runtime.InternStr(iv.S))
	case types.KUninit:
		return runtime.Uninit()
	default:
		return runtime.Null()
	}
}

// Place rebases the code at base.
func (c *Code) Place(base uint64) {
	c.Base = base
}

// AddrOf returns the absolute address of instruction i.
func (c *Code) AddrOf(i int) uint64 {
	if i < len(c.Addr) {
		return c.Base + uint64(c.Addr[i])
	}
	return c.Base + c.Size
}

// Area identifies code-cache regions.
type Area int

const (
	AreaHot Area = iota
	AreaCold
	AreaProfile
	AreaLive
	AreaCount
)

// Cache is the simulated code cache. Each area is a bump allocator;
// the total byte budget models the JITed-code limit swept in the
// paper's Figure 11 experiment.
type Cache struct {
	// Faults, when non-nil, injects transient allocation failures
	// (faultinject.AllocFail) ahead of the budget check. Set once at
	// engine construction, before any allocation.
	Faults *faultinject.Injector

	mu    sync.Mutex
	limit uint64
	used  [AreaCount]uint64
	next  [AreaCount]uint64

	// hugeBytes of the hot area are mapped with 2 MiB pages when
	// huge-page mapping is enabled. Atomic: HugeCovers sits on the
	// instruction-fetch fast path of every worker.
	hugeBytes atomic.Uint64

	// freeUnderflows counts Free calls that tried to return more
	// bytes than the area held (a bookkeeping bug upstream; the free
	// is clamped rather than ignored).
	freeUnderflows uint64
}

// Area base addresses, spaced far apart so areas never collide.
var areaBase = [AreaCount]uint64{
	AreaHot:     0x0800_0000,
	AreaCold:    0x4000_0000,
	AreaProfile: 0x8000_0000,
	AreaLive:    0xC000_0000,
}

// NewCache creates a cache with a byte limit (0 = unlimited).
func NewCache(limit uint64) *Cache {
	return &Cache{limit: limit}
}

// SetHugePages maps the first bytes of the hot area onto 2 MiB pages.
func (c *Cache) SetHugePages(bytes uint64) {
	c.hugeBytes.Store(bytes)
}

// HugeCovers reports whether addr falls in the huge-page-mapped
// region. Lock-free: concurrent fetch models consult it constantly.
func (c *Cache) HugeCovers(addr uint64) bool {
	hb := c.hugeBytes.Load()
	return hb > 0 && addr >= areaBase[AreaHot] && addr < areaBase[AreaHot]+hb
}

// Alloc reserves size bytes in an area, returning the base address.
// It fails when the total limit would be exceeded (the VM then stops
// JITing, falling back to the interpreter — point D in Figure 9).
func (c *Cache) Alloc(area Area, size uint64) (uint64, error) {
	if c.Faults.Should(faultinject.AllocFail) {
		return 0, faultinject.Errf(faultinject.AllocFail)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit > 0 && c.TotalUsedLocked()+size > c.limit {
		return 0, fmt.Errorf("mcode: %w (limit %d)", ErrCacheFull, c.limit)
	}
	base := areaBase[area] + c.next[area]
	c.next[area] += size
	c.used[area] += size
	return base, nil
}

// Free returns bytes to the budget (profiling code is discarded after
// the optimized translations are published). Oversized frees clamp to
// the area's remaining bytes (counted in FreeUnderflows) instead of
// being silently ignored, and fully retiring an area resets its bump
// pointer so the address space is actually recycled.
func (c *Cache) Free(area Area, size uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.used[area] {
		c.freeUnderflows++
		size = c.used[area]
	}
	c.used[area] -= size
	if c.used[area] == 0 {
		c.next[area] = 0
	}
}

// FreeUnderflows reports how many Free calls exceeded an area's
// allocated bytes and were clamped.
func (c *Cache) FreeUnderflows() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeUnderflows
}

// ResetArea clears an area's allocation point (relocation pass).
func (c *Cache) ResetArea(area Area) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.used[area] = 0
	c.next[area] = 0
}

// TotalUsed returns bytes allocated across areas.
func (c *Cache) TotalUsed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.TotalUsedLocked()
}

// TotalUsedLocked is TotalUsed without locking (internal).
func (c *Cache) TotalUsedLocked() uint64 {
	var t uint64
	for _, u := range c.used {
		t += u
	}
	return t
}

// AreaUsed returns bytes allocated in one area.
func (c *Cache) AreaUsed(a Area) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used[a]
}

// Limit returns the configured byte budget.
func (c *Cache) Limit() uint64 { return c.limit }
