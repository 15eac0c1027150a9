package machine_test

import (
	goruntime "runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/vasm"
)

// TestAssemblyAllocatesPerArray: what a translation keeps is a few
// arrays of exactly the right size, one per element type (DESIGN.md §6
// "What a translation keeps is its own"), so assembling, placing and
// preparing a unit for dispatch allocates a handful of objects whatever
// its size. Run over every unit the site compiles, as its compile
// hands it to Assemble: about 5.6 a unit; 6.1 while the register lists
// and jump tables were arrays of their own, 8.5 when the code, its
// addresses, block starts and dispatch tables were separate arrays and
// FetchTails one list per fused instruction — plus 1.2 in vasm.Allocate
// for exit descriptors that Assemble now encodes into one array.
func TestAssemblyAllocatesPerArray(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	site := siteUnits(t)
	units := make([]*vasm.Unit, len(site))
	for i, u := range site {
		units[i] = u.Clone()
		vasm.Fuse(units[i]) // as the JIT compiles
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for _, u := range units {
		code, err := mcode.Assemble(u)
		if err != nil {
			t.Fatal(err)
		}
		code.Place(0x1000)
		machine.PrepareDispatch(code)
	}
	goruntime.ReadMemStats(&after)
	const budget = 7
	perUnit := float64(after.Mallocs-before.Mallocs) / float64(len(units))
	t.Logf("%d units: %.2f allocations each to assemble, place and prepare (budget %d)", len(units), perUnit, budget)
	if perUnit > budget {
		t.Errorf("assembling a unit allocates %.2f objects, budget %d", perUnit, budget)
	}
}
