package core_test

import (
	"io"
	"testing"

	"repro/internal/core"

	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/perflab"
)

// regionGuards totals what the HHIR builder did about guards, and the
// optimizer about frame loads, over eng's optimized translations.
func regionGuards(eng *core.Engine) (hhir.BuildStats, hhir.OptStats) {
	var guards hhir.BuildStats
	var loads hhir.OptStats
	eng.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind == jit.ModeRegion {
			guards.Add(tr.Code.Guards)
			loads.Add(tr.Code.Loads)
		}
	})
	return guards, loads
}

// TestSiteGuestCycleBudget: the 14-endpoint round-robin site, warmed to
// the optimized tier, stays under a pinned guest-cycle ceiling per
// request. The count repeats bit for bit, so the ceiling sits ~1% above
// today's value (21,916.1; 23,143.5 before ConcatN and ConcatL, 25,161.4
// before loads were forwarded across region blocks, 31,417.6 before the
// region-wide type flow, DESIGN.md §6): a change that gives back what the flow, the forwarding or the
// allocator won fails here rather than in a ledger run. CI appends the
// logged line to the job summary.
func TestSiteGuestCycleBudget(t *testing.T) {
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, ep := range eps {
			if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 40; i++ {
		pass()
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("warm-up did not reach the optimized tier")
	}
	const passes = 5
	before := eng.Cycles()
	for i := 0; i < passes; i++ {
		pass()
	}
	perReq := float64(eng.Cycles()-before) / float64(passes*len(eps))

	guards, loads := regionGuards(eng)
	t.Logf("site guest cycles: %.1f per warmed request (budget %d); guards: %s; loads: %s",
		perReq, siteCycleBudget, guards, loads)
	if perReq > siteCycleBudget {
		t.Errorf("a warmed site request costs %.1f guest cycles, budget %d", perReq, siteCycleBudget)
	}
	if guards.GuardsProven == 0 || guards.ParamsNarrowed == 0 {
		t.Errorf("the type flow proved nothing on the site: %+v", guards)
	}
	if loads.LoadsForwarded == 0 || loads.PhisInserted == 0 {
		t.Errorf("no load was forwarded across a join on the site: %+v", loads)
	}
}

const siteCycleBudget = 22130

// flowViolationSrc breaks what loop headers assume: every accumulator
// starts Int and is retyped in the loop body, one of them only on some
// iterations, so the back-edges carry Dbl and Str into headers lowered
// under Int and the regions have to be rebuilt without those facts.
const flowViolationSrc = `
function drift($n) {
  $sum = 0;
  $tag = 0;
  for ($i = 0; $i < $n; $i++) {
    if ($i % 3 == 2) { $sum = $sum + 0.25; } else { $sum = $sum + $i; }
    for ($j = 0; $j < 2; $j++) { $tag = $tag . $j; }
  }
  return $sum . "/" . $tag;
}
function mean($xs) {
  $total = 0;
  $seen = 0;
  foreach ($xs as $x) { $total = $total + $x; $seen++; }
  return $total / $seen;
}
echo drift(9), " ", mean([1, 2, 3]), " ", mean([1, 2.5, 4]), "\n";
`

// TestModesAgreeFlowViolation: the assume-then-verify half of the type
// flow, end to end — every mode prints what the interpreter prints
// (register allocations verified, no guest object leaked) although the
// optimized regions' first lowering attempts were thrown away.
func TestModesAgreeFlowViolation(t *testing.T) {
	runAllModes(t, flowViolationSrc, 14)

	unit, err := core.Compile(flowViolationSrc, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(unit, modes()["region"], io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		if _, err := eng.RunRequest(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	guards, _ := regionGuards(eng)
	t.Logf("guards: %s", guards)
	if guards.Rebuilds == 0 || guards.GuardsProven == 0 {
		t.Errorf("no optimized region was rebuilt: the program no longer forces a violation (%+v)", guards)
	}
}

// TestModesAgreeInlinedLocalsReset: the frame extension an inlined
// callee's locals live in outlives the call, so a call site in a loop
// finds the previous iteration's values there unless the inliner
// resets them — and the type flow proves, rather than checks, that a
// local the callee has not assigned yet is Uninit.
func TestModesAgreeInlinedLocalsReset(t *testing.T) {
	runAllModes(t, `
function once($a) { $r = $t; $t = $a; return $r; }
function sometimes($a, $b) { if ($a) { $t = 5; } if ($b) { $a = 2; } return $t; }
function show($r) { if ($r === null) { return "n"; } return $r; }
function driveOnce() { $s = ""; for ($i = 0; $i < 6; $i++) { $r = once($i); $s .= show($r); } return $s; }
function driveSometimes() { $s = ""; for ($i = 0; $i < 6; $i++) { $r = sometimes(($i + 1) % 2, $i % 3); $s .= show($r); } return $s; }
echo driveOnce(), " ", driveSometimes(), "\n";
`, 14)
}
