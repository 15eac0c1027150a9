package machine_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/perflab"
	"repro/internal/vasm"
)

// The dispatch oracle. The machine charges a straight-line run in one
// add from CostPrefix and probes the fetch model only where
// DispatchFlags and FetchTails say a new i-cache line starts. That
// gives the same meter and fetch-model state as charging opCost and
// probing the start of every instruction of the unfused stream, one at
// a time, exactly when PrepareDispatch's tables say what that walk
// would have done. The test below checks the tables against that walk
// for every unit the warmed site compiles; the accounting tests pin
// what whole runs charge.

var site struct {
	once  sync.Once
	units []*vasm.Unit
	err   error
}

// siteUnits returns every unit the warmed site compiles, as register
// allocation leaves it: before fusion, which each caller applies to a
// clone of its own.
func siteUnits(t *testing.T) []*vasm.Unit {
	t.Helper()
	site.once.Do(func() {
		eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
		if err != nil {
			site.err = err
			return
		}
		eng.VM.JIT.SetAllocationCheck(func(_ *hhir.Unit, _, after *vasm.Unit) {
			site.units = append(site.units, after.Clone())
		})
		if site.err = perflab.Warm(eng, eps, 10, nil); site.err == nil && !eng.VM.JIT.Optimized() {
			site.err = fmt.Errorf("warm-up did not reach the optimized tier")
		}
	})
	if site.err != nil {
		t.Fatal(site.err)
	}
	return site.units
}

// TestPreparedDispatchMatchesPerInstruction assembles each site unit
// twice, as allocated and fused, places both at every 8-byte phase of
// an i-cache line and prepares them. Fusion must move no address and
// no cost, each unfused step of CostPrefix must be its op's opCost,
// and the lines the fused code's head flags and fetch tails name must
// be, in stream order, the start lines of the unfused instructions
// with consecutive repeats counted once.
func TestPreparedDispatchMatchesPerInstruction(t *testing.T) {
	units := siteUnits(t)
	var fused, tails int
	for ui, u := range units {
		fu := u.Clone()
		vasm.Fuse(fu)
		plain, fast := assembleUnit(t, u), assembleUnit(t, fu)
		for _, in := range fast.Instrs {
			if in.Op.Components() != nil {
				fused++
			}
		}
		for phase := uint64(0); phase < 1<<machine.ICacheLineBits; phase += 8 {
			base := 0x40000 + phase
			for _, code := range []*mcode.Code{plain, fast} {
				code.Place(base)
				machine.PrepareDispatch(code)
			}
			if err := checkDispatch(plain, fast); err != nil {
				t.Fatalf("unit %d of %d at base %#x: %v", ui, len(units), base, err)
			}
			tails += len(fast.FetchTails) / 2
		}
	}
	t.Logf("dispatch oracle: %d site units, %d fused instructions, %d fetch tails checked over 8 line phases",
		len(units), fused, tails)
	if len(units) < 1000 || fused == 0 || tails == 0 {
		t.Errorf("the oracle covered %d units, %d fused instructions and %d fetch tails: want ≥ 1000 and some of each",
			len(units), fused, tails)
	}
}

func assembleUnit(t *testing.T, u *vasm.Unit) *mcode.Code {
	t.Helper()
	code, err := mcode.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// checkDispatch compares fast, prepared fused code, with plain, the
// same unit prepared unfused at the same base.
func checkDispatch(plain, fast *mcode.Code) error {
	if plain.Size != fast.Size {
		return fmt.Errorf("%d bytes fused, %d unfused", fast.Size, plain.Size)
	}
	for j, in := range plain.Instrs {
		if step, want := plain.CostPrefix[j+1]-plain.CostPrefix[j], int32(machine.OpCost(in.Op)); step != want {
			return fmt.Errorf("unfused #%d %s: CostPrefix steps %d, opCost is %d", j, in.Op, step, want)
		}
	}
	// The lines the per-instruction walk probes: each instruction's
	// start line, a repeat of the line before it counted once.
	var want []uint64
	for j := range plain.Instrs {
		if line := plain.AddrOf(j) >> machine.ICacheLineBits; len(want) == 0 || want[len(want)-1] != line {
			want = append(want, line)
		}
	}
	var got []uint64
	var sizes []uint64
	j, used := 0, 0
	for i := range fast.Instrs {
		in := &fast.Instrs[i]
		if j >= len(plain.Instrs) {
			return fmt.Errorf("fused #%d %s lies past the unfused stream", i, in.Op)
		}
		if fast.AddrOf(i) != plain.AddrOf(j) || fast.CostPrefix[i] != plain.CostPrefix[j] {
			return fmt.Errorf("fused #%d %s at %#x cost %d, its first component #%d at %#x cost %d",
				i, in.Op, fast.AddrOf(i), fast.CostPrefix[i], j, plain.AddrOf(j), plain.CostPrefix[j])
		}
		fl := fast.DispatchFlags[i]
		if fl&mcode.FlagFetchHead != 0 {
			got = append(got, fast.AddrOf(i)>>machine.ICacheLineBits)
		}
		if fl&mcode.FlagFetchTails != 0 {
			// As the machine reads them: the pairs from the flag's start
			// on that name instruction i.
			for k := int(fl >> mcode.FlagBits); k < len(fast.FetchTails) && int(fast.FetchTails[k]) == i; k += 2 {
				got = append(got, (fast.Base+uint64(fast.FetchTails[k+1]))>>machine.ICacheLineBits)
				used++
			}
		}
		sizes = mcode.ComponentSizes(in, sizes)
		j += len(sizes)
	}
	if n := len(fast.Instrs); j != len(plain.Instrs) || fast.CostPrefix[n] != plain.CostPrefix[j] {
		return fmt.Errorf("the fused stream's components cover %d of %d instructions and cost %d, unfused %d",
			j, len(plain.Instrs), fast.CostPrefix[n], plain.CostPrefix[len(plain.Instrs)])
	}
	if used != len(fast.FetchTails)/2 {
		return fmt.Errorf("%d fetch tails, %d reachable from the flags", len(fast.FetchTails)/2, used)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("prepared code probes lines %x, the per-instruction walk %x", got, want)
	}
	return nil
}
