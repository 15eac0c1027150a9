// Package mcode implements the simulated code cache: assembly of
// laid-out Vasm into addressed code, allocation of hot/cold/frozen
// areas, relocation (used when optimized translations are published
// in function-sorted order), and huge-page mapping of the hot area.
package mcode

import (
	"errors"
	"fmt"
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

// Code is one assembled translation: the flattened instruction
// stream in layout order with per-instruction addresses.
type Code struct {
	Instrs []vasm.Instr
	// Addr[i] is the simulated address of Instrs[i].
	Addr []uint64
	// BlockStart[b] is the index into Instrs of vasm block b's first
	// instruction (-1 for a block the layout dropped). Every branch
	// target, jump-table entry and stub reference in Instrs/Tables was
	// checked against it by Assemble, so the machine indexes it
	// directly; block 0 is the translation entry.
	BlockStart []int32
	// Consts is the constant pool, materialized: Consts[i] is the
	// guest value LdImm #i loads, strings already interned.
	Consts []runtime.Value
	// Builtins holds the natives this translation calls: a CallBuiltin
	// whose name resolved carries its 1-based index here in I64 (0 =
	// unresolved, the machine falls back to a guest function of that
	// name).
	Builtins []*runtime.Builtin
	// Tables holds JmpTable jump tables (targets are block ids).
	Tables []vasm.JumpTable
	// NumSpills / ExtSlots size the activation's spill area and
	// extended frame.
	NumSpills int
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

	// FastDispatch marks translations prepared for the machine's fused
	// fast-dispatch path: CostPrefix/DispatchFlags/FetchTails are
	// populated (by machine.PrepareDispatch, after Place) and the
	// machine charges static cycles per straight-line run instead of
	// per instruction. Unprepared code always takes the classic
	// per-instruction path.
	FastDispatch bool
	// CostPrefix[i] is the summed static cost of Instrs[:i] (length
	// len(Instrs)+1): the cost of the stream stretch [a, b] is
	// CostPrefix[b+1]-CostPrefix[a].
	CostPrefix []uint64
	// DispatchFlags[i] packs the per-instruction fetch metadata into
	// one byte so the fast path pays a single load per instruction:
	// FlagFetchHead means Instrs[i] starts on a different icache line
	// than the last component of its stream predecessor (a
	// straight-line fall-into needs a fetch probe; control transfers
	// always probe), FlagFetchTails that FetchTails[i] is non-empty.
	DispatchFlags []uint8
	// FetchTails[i] lists the addresses of second-and-later components
	// of a fused Instrs[i] that begin a new icache line relative to
	// the component before them (nil for nearly every instruction;
	// consulted only when DispatchFlags[i]&FlagFetchTails is set).
	FetchTails [][]uint64

	// Chainable marks translations that participate in direct
	// chaining: their smash sites may be bound and they may be chained
	// into. Profiling translations are never chainable (every entry
	// must go through the dispatcher so counters and arcs are
	// recorded), and the JIT clears it globally when chaining is
	// disabled.
	Chainable bool
	// links is the smash-site slab: links[i] is the published direct
	// target of the smashable instruction at Instrs[i] (BindJmp and
	// direct-call sites), nil until the first transfer resolves it.
	// Slots are read lock-free by every worker on the hot path and
	// overwritten wholesale by smashing/sweeping, never mutated.
	links []atomic.Pointer[Link]
}

// DispatchFlags bits (see Code.DispatchFlags).
const (
	FlagFetchHead  uint8 = 1 << 0
	FlagFetchTails uint8 = 1 << 1
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

// LoadLink returns the published link of smash site i (nil if the
// site is unbound or i has no slot). Lock-free.
func (c *Code) LoadLink(i int) *Link {
	if i >= len(c.links) {
		return nil
	}
	return c.links[i].Load()
}

// StoreLink smashes site i to l. Storing nil unbinds the site.
func (c *Code) StoreLink(i int, l *Link) {
	if i < len(c.links) {
		c.links[i].Store(l)
	}
}

// SweepLinks clears every link whose epoch differs from epoch (the
// treadmill pass run after an index republish) and returns the number
// of links cleared.
func (c *Code) SweepLinks(epoch uint64) int {
	cleared := 0
	for i := range c.links {
		if l := c.links[i].Load(); l != nil && l.Epoch != epoch {
			c.links[i].Store(nil)
			cleared++
		}
	}
	return cleared
}

// ForEachLink visits every bound smash site (diagnostics and the
// invalidation tests).
func (c *Code) ForEachLink(fn func(instr int, l *Link)) {
	for i := range c.links {
		if l := c.links[i].Load(); l != nil {
			fn(i, l)
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
		return 10
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

// instrSize is the encoded size of in. A superinstruction keeps its
// components' encodings back-to-back, so addresses are unchanged by
// fusion; a jump the layout turned into a fallthrough has none.
func instrSize(in *vasm.Instr) uint64 {
	if in.Op == vasm.Jmp && in.I64&1 != 0 {
		return 0
	}
	var sz uint64
	in.ForEachComponent(func(op vasm.Op) { sz += opSize(op) })
	return sz
}

// ComponentSizes returns the encoded byte size of each component of
// in: one element for ordinary instructions, one per fused component
// for superinstructions. The fetch model consumes these so a fused
// stream touches exactly the icache lines the unfused stream did.
func ComponentSizes(in *vasm.Instr) []uint64 {
	if in.Op.Components() == nil {
		return []uint64{instrSize(in)}
	}
	var sizes []uint64
	in.ForEachComponent(func(op vasm.Op) { sizes = append(sizes, opSize(op)) })
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

// Assemble flattens a laid-out, register-allocated unit and resolves
// everything the machine would otherwise look up by key per executed
// instruction: block ids to stream indexes (BlockStart), immediates
// to guest values (Consts), builtin names to natives (Builtins).
// Addresses are relative to 0 until Place assigns a base. What has no
// bytes in the encoding is not in the stream either: a jump the layout
// turned into a fallthrough is dropped here, so it is neither
// dispatched nor charged (a block it empties starts where the next one
// does). A malformed stream — an immediate index past the constant
// pool, a branch, jump-table entry or stub reference to a block the
// layout does not contain, a register operand that is neither a
// machine register nor a spill slot of this unit — is an
// *AssembleError, not a panic and not a translation that silently
// restarts itself.
func Assemble(u *vasm.Unit) (*Code, error) {
	order := u.Order()
	c := &Code{BlockStart: make([]int32, len(u.Blocks)), Tables: u.Tables,
		NumSpills: u.NumSpills, ExtSlots: u.ExtFrameSlots, Alloc: u.Alloc}
	for i := range c.BlockStart {
		c.BlockStart[i] = -1
	}
	n := 0
	for _, bi := range order {
		n += len(u.Blocks[bi].Instrs)
	}
	c.Instrs = make([]vasm.Instr, 0, n)
	c.Addr = make([]uint64, 0, n)
	var off uint64
	for _, bi := range order {
		b := u.Blocks[bi]
		// An empty block starts where the next one does (past the end
		// of the stream for trailing ones).
		c.BlockStart[bi] = int32(len(c.Instrs))
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == vasm.Jmp && in.I64&1 != 0 {
				c.ElidedJumps++
				continue
			}
			c.Instrs = append(c.Instrs, b.Instrs[i])
			c.Addr = append(c.Addr, off)
			off += instrSize(&b.Instrs[i])
		}
	}
	// Jump tables live in the translation's rodata: count them into
	// the footprint (8 bytes per entry).
	for _, tbl := range u.Tables {
		off += uint64(8 * (len(tbl.Targets) + 1))
	}
	c.Size = off

	c.Consts = make([]runtime.Value, len(u.Imms))
	for i, iv := range u.Imms {
		c.Consts[i] = constValue(iv)
	}
	if err := c.resolve(); err != nil {
		return nil, err
	}
	// Smash-site identity: any smashable instruction (bind jumps and
	// direct call sites) gets a stable link slot addressed by its
	// index in the flattened stream.
	for i := range c.Instrs {
		if c.Instrs[i].Op.Smashable() {
			c.links = make([]atomic.Pointer[Link], len(c.Instrs))
			break
		}
	}
	return c, nil
}

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

// resolve validates every keyed operand of the flattened stream and
// binds CallBuiltin names.
func (c *Code) resolve() error {
	// fail records the first error found at instruction i.
	var (
		i   int
		err error
	)
	fail := func(format string, args ...any) {
		if err == nil {
			err = &AssembleError{Index: i, Op: c.Instrs[i].Op, Reason: fmt.Sprintf(format, args...)}
		}
	}
	block := func(b int) {
		if b < 0 || b >= len(c.BlockStart) || c.BlockStart[b] < 0 {
			fail("target B%d is not a laid-out block (%d blocks)", b, len(c.BlockStart))
		}
	}
	imm := func(idx int64) {
		if idx < 0 || idx >= int64(len(c.Consts)) {
			fail("imm #%d out of range (%d imms)", idx, len(c.Consts))
		}
	}
	reg := func(r vasm.Reg) {
		switch {
		case r == vasm.InvalidReg, r >= 0 && r < vasm.TotalMachineRegs:
		case r >= vasm.SpillRegBase && int(r-vasm.SpillRegBase) < c.NumSpills:
		default:
			fail("r%d is neither a machine register nor one of %d spill slots (read before it is defined, or never allocated)", r, c.NumSpills)
		}
	}
	for i = range c.Instrs {
		in := &c.Instrs[i]
		reg(in.D)
		in.ForEachUse(reg)
		in.ForEachTarget(c.Tables, block)
		switch in.Op {
		case vasm.LdImm:
			imm(in.I64)
		case vasm.LdImmAddI, vasm.LdImmCmpI:
			imm(in.I64 >> 16)
		case vasm.Jmp, vasm.GuardKind, vasm.GuardCls, vasm.GuardShape, vasm.LdLocGK,
			vasm.Jcc, vasm.CmpIJcc, vasm.CmpDJcc:
			// These always transfer somewhere: no target is no encoding.
			if in.Target1 < 0 {
				block(in.Target1)
			}
		case vasm.JmpTable:
			if in.I64 < 0 || in.I64 >= int64(len(c.Tables)) {
				fail("jump table #%d out of range (%d tables)", in.I64, len(c.Tables))
			}
		case vasm.CallBuiltin:
			in.I64 = 0
			if b, ok := runtime.LookupBuiltin(in.Str); ok {
				idx := slices.Index(c.Builtins, b)
				if idx < 0 {
					idx = len(c.Builtins)
					c.Builtins = append(c.Builtins, b)
				}
				in.I64 = int64(idx + 1)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Entry returns the stream index execution starts at: block 0's first
// instruction (layout may have placed hotter blocks ahead of it).
func (c *Code) Entry() int { return int(c.BlockStart[0]) }

// Place rebases the code at base.
func (c *Code) Place(base uint64) {
	c.Base = base
}

// AddrOf returns the absolute address of instruction i.
func (c *Code) AddrOf(i int) uint64 {
	if i < len(c.Addr) {
		return c.Base + c.Addr[i]
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
