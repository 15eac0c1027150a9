package jit

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/hhbc"
)

type transKey struct {
	fn int
	pc int
}

// transIndex is the RCU-published translation index (DESIGN.md §9): one
// slot per function of the unit, each pointing at that function's
// chains by pc once it has any, every chain an atomic pointer to an
// immutable list of translations. A chain, like HHVM's, only ever grows
// at its tail between two bulk rebuilds. Writers hold j.mu; readers are
// lock-free. install republishes one chain of the published index;
// rebuild makes a new index that the caller swaps in whole (JIT.trans),
// so a batch of changes becomes visible in one atomic step.
type transIndex struct {
	funcs []*hhbc.Func
	fns   []atomic.Pointer[fnChains]
}

// fnChains is one function's chains, indexed by pc. Installs store into
// it in place; it is only replaced when a pc past its end is installed
// (a function the index does not know the length of).
type fnChains []atomic.Pointer[[]*Translation]

func newTransIndex(funcs []*hhbc.Func) *transIndex {
	return &transIndex{funcs: funcs, fns: make([]atomic.Pointer[fnChains], len(funcs))}
}

// pcs returns fn's chains by pc; none for an ID outside the unit or a
// function without translations.
func (x *transIndex) pcs(fn int) fnChains {
	if fn < 0 || fn >= len(x.fns) {
		return nil
	}
	if p := x.fns[fn].Load(); p != nil {
		return *p
	}
	return nil
}

// chain returns the published chain at key, nil if there is none.
func (x *transIndex) chain(key transKey) []*Translation {
	pcs := x.pcs(key.fn)
	if key.pc < 0 || key.pc >= len(pcs) {
		return nil
	}
	if c := pcs[key.pc].Load(); c != nil {
		return *c
	}
	return nil
}

// tableLen is the length of fn's table of chains: every pc of the
// function, and pc.
func (x *transIndex) tableLen(fn, pc int) int {
	if f := x.funcs[fn]; f != nil {
		return max(pc+1, len(f.Instrs))
	}
	return pc + 1
}

// install appends tr to the chain at key. It allocates only the chain
// that grows, and stores it into key's slot in place; readers holding
// the old chain keep it untouched. The list's header lives in tr, the
// new tail, which no other chain ends in: installing it is what
// publishes it.
func (x *transIndex) install(key transKey, tr *Translation) {
	pcs := x.pcs(key.fn)
	if key.pc >= len(pcs) {
		grown := make(fnChains, x.tableLen(key.fn, key.pc))
		for pc := range pcs {
			grown[pc].Store(pcs[pc].Load())
		}
		pcs = grown
		x.fns[key.fn].Store(&grown)
	}
	var old []*Translation
	if c := pcs[key.pc].Load(); c != nil {
		old = *c
	}
	tr.chain = make([]*Translation, len(old)+1)
	copy(tr.chain, old)
	tr.chain[len(old)] = tr
	pcs[key.pc].Store(&tr.chain)
}

// each visits every chain, by function and then by pc.
func (x *transIndex) each(visit func(key transKey, chain []*Translation)) {
	for fn := range x.fns {
		pcs := x.pcs(fn)
		for pc := range pcs {
			if c := pcs[pc].Load(); c != nil {
				visit(transKey{fn, pc}, *c)
			}
		}
	}
}

// rebuild returns a new index holding every translation of x that drop
// rejects, then each of add at the tail of its address's chain, in
// order. One walk counts the new index and a second fills it, so every
// function's table, every chain's header and every chain are windows of
// one array each.
func (x *transIndex) rebuild(drop func(tr *Translation) bool, add []*Translation) *transIndex {
	add = slices.Clone(add)
	slices.SortStableFunc(add, func(a, b *Translation) int {
		return cmp.Or(cmp.Compare(a.FuncID, b.FuncID), cmp.Compare(a.PC, b.PC))
	})
	// walk calls visit with each translation of the new index, by
	// function, pc and chain order.
	walk := func(visit func(key transKey, tr *Translation)) {
		a := add
		for fn := range x.fns {
			old := x.pcs(fn)
			for pc := 0; pc < len(old) || len(a) > 0 && a[0].FuncID == fn; pc++ {
				if pc < len(old) {
					if c := old[pc].Load(); c != nil {
						for _, tr := range *c {
							if !drop(tr) {
								visit(transKey{fn, pc}, tr)
							}
						}
					}
				}
				for ; len(a) > 0 && a[0].FuncID == fn && a[0].PC == pc; a = a[1:] {
					visit(transKey{fn, pc}, a[0])
				}
			}
		}
	}
	size := make([]int, len(x.fns)) // per function: its table's length (0: no chains)
	n, chains, last := 0, 0, transKey{-1, -1}
	walk(func(key transKey, _ *Translation) {
		n++
		if key != last {
			chains, last = chains+1, key
			size[key.fn] = key.pc + 1
		}
	})
	y := newTransIndex(x.funcs)
	slots := 0
	for fn, sz := range size {
		if sz > 0 {
			size[fn] = x.tableLen(fn, sz-1)
			slots += size[fn]
		}
	}
	tables := make([]fnChains, len(x.fns))
	all := make(fnChains, slots)
	for fn, sz := range size {
		if sz > 0 {
			tables[fn], all = all[:sz:sz], all[sz:]
			y.fns[fn].Store(&tables[fn])
		}
	}
	trs := make([]*Translation, 0, n)
	heads := make([][]*Translation, 0, chains)
	from, last := 0, transKey{-1, -1}
	walk(func(key transKey, tr *Translation) {
		if key != last {
			heads, from, last = append(heads, nil), len(trs), key
			tables[key.fn][key.pc].Store(&heads[len(heads)-1])
		}
		trs = append(trs, tr)
		heads[len(heads)-1] = trs[from:len(trs):len(trs)]
	})
	return y
}
