package machine

// Fast dispatch. The classic exec loop pays, per vasm instruction, a
// fetch-model probe and an opCost call before the opcode switch. The
// fast path prepared here charges static cycles once per straight-
// line run via prefix sums, probes the fetch model only at icache-
// line boundaries and control transfers, and executes the
// superinstructions minted by vasm.Fuse. The classic path stays in
// the loop as the guest-cycle reference the tests compare against
// (unprepared code takes it). Guest-visible behavior — every output
// and every meter cycle — is bit-identical between the two:
//
//   - Same-line fetches return 0 without touching FetchModel state,
//     so skipping them is invisible. A straight-line successor is on
//     the same line as its stream predecessor exactly when
//     FetchHead is false — computed from the same addresses the
//     classic path fetches. Control transfers always probe, and
//     Fetch itself short-circuits on lastLine, so over-probing at a
//     transfer that lands on the current line is also invisible.
//   - Static costs are charged when the run settles (at transfers,
//     exits, throws, faults, and returns) instead of before each
//     instruction. Nothing observes Meter.Cycles between those
//     points: guest calls and helpers nest their own attribution
//     windows strictly inside the pending run's window, so totals
//     and per-window attributions are unchanged.

import "repro/internal/mcode"

// PrepareDispatch computes the dispatch metadata of placed code and
// marks it for the fast path. Must run after Code.Place (addresses
// are line-relative to the base). It fills the windows Assemble
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
	code.FastDispatch = true
}
