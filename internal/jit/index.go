package jit

import "sync/atomic"

type transKey struct {
	fn int
	pc int
}

// transIndex is the RCU-published translation index (DESIGN.md §9): one
// slot per function of the unit, each an atomic pointer to that
// function's immutable retranslation chains, sorted by bytecode
// address. A chain, like HHVM's, only ever grows at its tail between
// two bulk rebuilds. Writers hold j.mu; readers are lock-free. install
// republishes one slot of the published index; rebuild makes a new
// index that the caller swaps in whole (JIT.trans), so a batch of
// changes becomes visible in one atomic step.
type transIndex struct {
	fns []atomic.Pointer[[]pcChain]
}

// pcChain is the retranslation chain at one bytecode address.
type pcChain struct {
	pc    int
	chain []*Translation
}

func newTransIndex(funcs int) *transIndex {
	return &transIndex{fns: make([]atomic.Pointer[[]pcChain], funcs)}
}

// pcs returns fn's chains, sorted by pc; none for an ID outside the
// unit.
func (x *transIndex) pcs(fn int) []pcChain {
	if fn < 0 || fn >= len(x.fns) {
		return nil
	}
	if p := x.fns[fn].Load(); p != nil {
		return *p
	}
	return nil
}

// search returns the position of the first chain in pcs at or past pc.
func search(pcs []pcChain, pc int) int {
	lo, hi := 0, len(pcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pcs[mid].pc < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// chain returns the published chain at key, nil if there is none.
func (x *transIndex) chain(key transKey) []*Translation {
	pcs := x.pcs(key.fn)
	if i := search(pcs, key.pc); i < len(pcs) && pcs[i].pc == key.pc {
		return pcs[i].chain
	}
	return nil
}

// install appends tr to the chain at key. It copies only key's function
// slot — its chains and the one chain that grows — and stores the copy
// into the slot; readers holding the old slot keep it untouched.
func (x *transIndex) install(key transKey, tr *Translation) {
	old := x.pcs(key.fn)
	i := search(old, key.pc)
	var pcs []pcChain
	if i < len(old) && old[i].pc == key.pc {
		pcs = append([]pcChain(nil), old...)
		chain := make([]*Translation, len(old[i].chain)+1)
		copy(chain, old[i].chain)
		chain[len(chain)-1] = tr
		pcs[i].chain = chain
	} else {
		pcs = make([]pcChain, len(old)+1)
		copy(pcs, old[:i])
		pcs[i] = pcChain{key.pc, []*Translation{tr}}
		copy(pcs[i+1:], old[i:])
	}
	x.fns[key.fn].Store(&pcs)
}

// each visits every chain, by function and then by pc.
func (x *transIndex) each(visit func(key transKey, chain []*Translation)) {
	for fn := range x.fns {
		for _, c := range x.pcs(fn) {
			visit(transKey{fn, c.pc}, c.chain)
		}
	}
}

// rebuild returns a new index holding every translation of x that drop
// rejects, then each of add installed at the tail of its address's
// chain, in order.
func (x *transIndex) rebuild(drop func(tr *Translation) bool, add []*Translation) *transIndex {
	y := newTransIndex(len(x.fns))
	for fn := range x.fns {
		var pcs []pcChain
		for _, c := range x.pcs(fn) {
			var keep []*Translation
			for _, tr := range c.chain {
				if !drop(tr) {
					keep = append(keep, tr)
				}
			}
			if len(keep) > 0 {
				pcs = append(pcs, pcChain{c.pc, keep})
			}
		}
		if len(pcs) > 0 {
			y.fns[fn].Store(&pcs)
		}
	}
	for _, tr := range add {
		y.install(transKey{tr.FuncID, tr.PC}, tr)
	}
	return y
}
