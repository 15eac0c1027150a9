package machine

// OpCost is the static charge of one vasm op: what a straight-line run
// pays for each instruction in it (the dispatch oracle's reference).
var OpCost = opCost

// ICacheLineBits is log2 of the modelled i-cache line.
const ICacheLineBits = iCacheLineBits
