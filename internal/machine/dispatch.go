package machine

// Dispatch. PrepareDispatch computes, once per placed translation,
// prefix sums of static cost and where new i-cache lines start, so the
// exec loop, the machine's only one, charges a straight-line run in one
// add, probes the fetch model only at line heads and transfers, and
// runs vasm.Fuse's superinstructions as one dispatch each. The meter
// and the fetch model end where charging opCost and probing the start
// of each unfused instruction one at a time would leave them
// (TestPreparedDispatchMatchesPerInstruction checks the tables):
//
//   - Same-line fetches return 0 without touching FetchModel state,
//     so skipping them is invisible. FetchHead marks an instruction
//     that starts a line its stream predecessor did not end on, and
//     FetchTails a fused one's later components that do. Control
//     transfers always probe; Fetch short-circuits on lastLine, so
//     over-probing at a transfer that lands on the current line is
//     also invisible.
//   - Static costs are charged when the run settles (at transfers,
//     exits, throws, faults, and returns) instead of before each
//     instruction. Nothing observes Meter.Cycles between those
//     points: guest calls and helpers nest their own attribution
//     windows strictly inside the pending run's window, so totals
//     and per-window attributions are unchanged.

import "repro/internal/mcode"

// PrepareDispatch computes the dispatch metadata of placed code. Must
// run after Code.Place (addresses are line-relative to the base); Exec
// refuses code it has not prepared. It fills the windows Assemble
// reserved for it and allocates nothing.
func PrepareDispatch(code *mcode.Code) {
	n := len(code.Instrs)
	prefix, flags := code.CostPrefix[:n+1], code.DispatchFlags[:n]
	tails := code.FetchTails[:0]
	clear(flags)
	prevLine := ^uint64(0) // sentinel: instruction 0 counts as a head
	var compBuf [4]uint64
	comps := compBuf[:0]
	for i := 0; i < n; i++ {
		in := &code.Instrs[i]
		prefix[i+1] = prefix[i] + int32(instrCost(in))
		addr := code.AddrOf(i)
		comps = mcode.ComponentSizes(in, comps)
		for ci, sz := range comps {
			line := addr >> iCacheLineBits
			if line != prevLine {
				if ci == 0 {
					flags[i] |= mcode.FlagFetchHead
				} else {
					if flags[i]&mcode.FlagFetchTails == 0 {
						flags[i] |= mcode.FlagFetchTails | int32(len(tails))<<mcode.FlagBits
					}
					tails = append(tails, int32(i), int32(addr-code.Base))
				}
				prevLine = line
			}
			addr += sz
		}
	}
	code.FetchTails = tails
}
