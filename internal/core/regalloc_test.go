package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/vasm"
)

// verifyAllocations runs vasm.VerifyAllocation over every unit eng
// compiles from here on — live, profiling and optimized alike — and
// holds its HHIR to what the instruction table says of a pure opcode:
// nothing to exit to (DCE and GVN drop and merge such instructions).
func verifyAllocations(t *testing.T, eng *core.Engine) {
	t.Helper()
	eng.VM.JIT.SetAllocationCheck(func(hu *hhir.Unit, before, after *vasm.Unit) {
		if err := vasm.VerifyAllocation(before, after); err != nil {
			t.Errorf("register allocation: %v\n%s", err, before)
		}
		for _, b := range hu.Blocks {
			for _, in := range b.Instrs {
				if in.Op.IsPure() && in.Exit != nil {
					t.Errorf("pure %s carries an exit:\n%s", in, hu)
				}
			}
		}
	})
}

// TestSiteAllocation: every translation of the site workload verifies,
// and on its optimized translations the allocator all but never falls
// back to a spill slot — exact register pressure on this site stays at
// or below the 12 registers, so a spill is the allocator's own
// fragmentation, not a need of the program.
func TestSiteAllocation(t *testing.T) {
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	verifyAllocations(t, eng)
	if err := perflab.Warm(eng, eps, 40, nil); err != nil {
		t.Fatal(err)
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("warm-up did not reach the optimized tier")
	}
	var total vasm.AllocStats
	translations, elided := 0, 0
	eng.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind == jit.ModeRegion {
			translations++
			total.Add(tr.Code.Alloc)
			elided += tr.Code.ElidedJumps
		}
	})
	t.Logf("%d optimized translations: %s; %d fallthrough jumps elided", translations, total, elided)
	if total.VRegs == 0 || total.CopiesCoalesced == 0 || elided == 0 {
		t.Errorf("allocation stats were not recorded: %+v, %d jumps elided", total, elided)
	}
	if total.Spilled*100 > total.VRegs {
		t.Errorf("%d of %d vregs spilled, want at most 1%%", total.Spilled, total.VRegs)
	}
}

// TestModesAgreeForcedSpill: twenty-one call arguments sit on the eval
// stack at once — more values than registers — while the last one is
// computed by a call that sometimes throws, so the wide call takes
// arguments from spill slots and the inner call's catch stub
// materializes a stack that is partly spilled. The site never gets
// here (2 spills in 8,000 vregs); this is the fallback's own coverage.
func TestModesAgreeForcedSpill(t *testing.T) {
	var params, args []string
	for i := 0; i < 20; i++ {
		params = append(params, fmt.Sprintf("$p%d", i))
		args = append(args, fmt.Sprintf(`"%c" . $i`, 'a'+i))
	}
	src := fmt.Sprintf(`
function wide(%[1]s, $last) { return %[2]s . "=" . $last; }
function risky($i) { if ($i %% 3 == 0) { throw new Exception("no " . $i); } return $i * 2; }
function spill($n) {
  $out = "";
  for ($i = 1; $i <= $n; $i++) {
    try {
      $out .= wide(%[3]s, risky($i)) . ";";
    } catch (Exception $e) {
      $out .= "[" . $e->getMessage() . "]";
    }
  }
  return $out;
}
echo spill(7), "\n";
`, strings.Join(params, ", "), strings.Join(params, " . "), strings.Join(args, ", "))

	var want string
	cfgs := modes()
	for _, name := range []string{"interp", "tracelet", "region"} {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var all strings.Builder
		eng, err := core.NewEngine(unit, cfgs[name], &all)
		if err != nil {
			t.Fatal(err)
		}
		verifyAllocations(t, eng)
		for i := 0; i < 12; i++ {
			if _, err := eng.RunRequest(&all); err != nil {
				t.Fatalf("[%s] request %d: %v", name, i, err)
			}
		}
		if name == "interp" {
			want = all.String()
			continue
		}
		if got := all.String(); got != want {
			t.Errorf("[%s] output diverges from interpreter:\n got: %.300q\nwant: %.300q", name, got, want)
		}
		spilled, spilledArgs, spilledStack := 0, 0, 0
		eng.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
			spilled += tr.Code.Alloc.Spilled
			for i := range tr.Code.Instrs {
				in := tr.Code.Decode(i)
				for _, r := range in.Args {
					if r >= vasm.SpillRegBase {
						spilledArgs++
					}
				}
				if in.Op == vasm.Exit {
					for _, r := range in.Ex.StackRegs {
						if r >= vasm.SpillRegBase {
							spilledStack++
						}
					}
				}
			}
		})
		if spilled == 0 || spilledArgs < 6 || spilledStack == 0 {
			t.Errorf("[%s] %d vregs spilled, %d call arguments and %d exit-stack entries in spill slots; the program was meant to force all three",
				name, spilled, spilledArgs, spilledStack)
		}
	}
}
