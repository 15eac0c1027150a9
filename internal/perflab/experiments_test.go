package perflab_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/workload"
)

// TestFig8Shape checks the headline ordering of Figure 8.
func TestFig8Shape(t *testing.T) {
	rows, err := perflab.Fig8(perflab.Quick)
	if err != nil {
		t.Fatal(err)
	}
	perflab.ReportFig8(os.Stderr, rows)
	rel := map[string]float64{}
	for _, r := range rows {
		rel[r.Mode] = r.RelPerf
	}
	if !(rel["interp"] < rel["profiling"] && rel["profiling"] < rel["tracelet"] &&
		rel["tracelet"] < rel["region"]) {
		t.Errorf("mode ordering wrong: %v (want interp < profiling < tracelet < region)", rel)
	}
	if rel["interp"] > 25 {
		t.Errorf("interpreter too fast: %.1f%% (paper: 12.8%%)", rel["interp"])
	}
	if rel["tracelet"] < 65 || rel["tracelet"] > 98 {
		t.Errorf("tracelet out of band: %.1f%% (paper: 82.2%%)", rel["tracelet"])
	}
	if rel["profiling"] < 25 || rel["profiling"] > 65 {
		t.Errorf("profiling out of band: %.1f%% (paper: 39.8%%)", rel["profiling"])
	}
}

// TestFig11Shape checks diminishing returns on code-size budget.
func TestFig11Shape(t *testing.T) {
	t.Parallel()
	rows, err := perflab.Fig11(perflab.Quick, []float64{0.1, 0.4, 1.0, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	perflab.ReportFig11(os.Stderr, rows)
	byFrac := map[float64]float64{}
	for _, r := range rows {
		byFrac[r.RelCodeSize] = r.RelPerf
	}
	if byFrac[0.1] >= byFrac[0.4] {
		t.Errorf("10%% budget (%.1f%%) should be slower than 40%% (%.1f%%)",
			byFrac[0.1], byFrac[0.4])
	}
	if byFrac[0.4] > byFrac[1.0]+3 {
		t.Errorf("40%% budget (%.1f%%) should not beat full budget (%.1f%%)",
			byFrac[0.4], byFrac[1.0])
	}
	// Diminishing returns: the jump 10->40 dwarfs 100->120.
	if byFrac[1.2]-byFrac[1.0] > byFrac[0.4]-byFrac[0.1] {
		t.Errorf("no diminishing returns: 100->120 gain %.1f vs 10->40 gain %.1f",
			byFrac[1.2]-byFrac[1.0], byFrac[0.4]-byFrac[0.1])
	}
}

// maxChainedLookupsPerReq bounds each mode's steady-state dispatcher
// Lookup rate at Quick volume: a tenth of the rate measured with
// chaining switched off (689.79 tracelet, 71.21 region; EXPERIMENTS.md),
// the >=10x drop chaining was accepted on. With chaining on, a request
// looks up its entry and whatever no link reaches.
var maxChainedLookupsPerReq = map[jit.Mode]float64{
	jit.ModeTracelet: 68.9,
	jit.ModeRegion:   7.1,
}

// TestChainAcceptance is the acceptance criterion for direct chaining:
// smashed bind jumps and bound calls keep steady-state transfers out of
// the dispatcher. (TestChainLinksAcrossOptimizePublish in internal/core
// holds the smashes and chained jumps themselves.)
func TestChainAcceptance(t *testing.T) {
	for mode, limit := range maxChainedLookupsPerReq {
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		r, err := perflab.Measure(cfg, perflab.Quick)
		if err != nil {
			t.Fatal(err)
		}
		lookups := r.SteadyPerReq(func(s jit.Stats) uint64 { return s.Lookups })
		t.Logf("%s: %.0f cycles/req, %.2f lookups/req", mode, r.WeightedMean, lookups)
		if lookups <= 0 || lookups > limit {
			t.Errorf("%s: %.2f lookups/req, want in (0, %.1f]", mode, lookups, limit)
		}
	}
}

// TestFig10Directions checks every ablation slows the system down.
func TestFig10Directions(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("fig10 is slow")
	}
	rows, err := perflab.Fig10(perflab.Config{WarmupRequests: 30, MeasureRequests: 5})
	if err != nil {
		t.Fatal(err)
	}
	perflab.ReportFig10(os.Stderr, rows)
	for _, r := range rows {
		if r.SlowdownPct < -2.5 {
			t.Errorf("disabling %s sped things up by %.1f%%", r.Optimization, -r.SlowdownPct)
		}
	}
}

// shapesOffCycles is each shape_ endpoint's guest cycles per request
// at Quick volume with typed object shapes switched off, the last time
// that switch existed (EXPERIMENTS.md); shapesOffGenericPerReq is that
// run's steady generic property-helper calls per request.
var shapesOffCycles = map[string]float64{
	"shape_mono": 23470, "shape_poly": 12356, "shape_mega": 12127, "shape_dynamic": 42976,
}

const shapesOffGenericPerReq = 234.8

// TestShapesAcceptance holds typed object shapes (DESIGN.md §14) to
// their acceptance gate on the shape_ endpoints at Quick volume: at
// least 5x fewer generic property-helper calls per request than without
// shapes, no endpoint dearer than without them (shape_mega ties: a
// megamorphic site declines to speculate and runs the generic helper
// either way), no steady-state shape-guard failure, and a
// shape-monomorphic site served by its shape guard alone.
func TestShapesAcceptance(t *testing.T) {
	var family, mono []workload.Endpoint
	for _, ep := range workload.Suite() {
		if strings.HasPrefix(ep.Name, "shape_") {
			family = append(family, ep)
		}
		if ep.Name == "shape_mono" {
			mono = append(mono, ep)
		}
	}
	if len(family) != len(shapesOffCycles) || len(mono) != 1 {
		t.Fatalf("suite has %d shape_ endpoints and %d shape_mono, want %d and 1",
			len(family), len(mono), len(shapesOffCycles))
	}
	pc := perflab.Quick
	pc.Endpoints = family
	r, err := perflab.Measure(jit.DefaultConfig(), pc)
	if err != nil {
		t.Fatal(err)
	}
	steady := func(r *perflab.Result, get func(jit.Stats) uint64) uint64 {
		return get(r.JITStats) - get(r.WarmStats)
	}
	generic := r.SteadyPerReq(func(s jit.Stats) uint64 { return s.GenericPropCalls })
	t.Logf("generic prop calls/req: %.2f", generic)
	if generic > shapesOffGenericPerReq/5 {
		t.Errorf("generic prop calls/req %.2f, want at most %.1f (a 5x drop from %.1f)",
			generic, shapesOffGenericPerReq/5, shapesOffGenericPerReq)
	}
	for _, ep := range r.Endpoints {
		t.Logf("%s: %.0f cycles/req (%.0f without shapes)", ep.Name, ep.MeanCycles, shapesOffCycles[ep.Name])
		if ep.MeanCycles > shapesOffCycles[ep.Name] {
			t.Errorf("%s: %.0f cycles/req, dearer than %.0f without shapes",
				ep.Name, ep.MeanCycles, shapesOffCycles[ep.Name])
		}
	}
	if fails := steady(r, func(s jit.Stats) uint64 { return s.ShapeGuardFails }); fails != 0 {
		t.Errorf("%d steady-state shape-guard failures: optimized code is guessing wrong layouts", fails)
	}

	pc.Endpoints = mono
	m, err := perflab.Measure(jit.DefaultConfig(), pc)
	if err != nil {
		t.Fatal(err)
	}
	guards := steady(m, func(s jit.Stats) uint64 { return s.ShapeGuards })
	icOps := steady(m, func(s jit.Stats) uint64 { return s.PropICHits + s.PropICMisses + s.PropICMega })
	monoGeneric := steady(m, func(s jit.Stats) uint64 { return s.GenericPropCalls })
	if guards == 0 || icOps != 0 || monoGeneric != 0 {
		t.Errorf("shape_mono alone: %d shape guards, %d IC operations, %d generic calls; want guards only",
			guards, icOps, monoGeneric)
	}
}

// TestSelect: cmd/bench -exp runs the experiments its list names in
// table order, "all" runs the whole table, and a name the table lacks
// is refused with the valid ones rather than running nothing.
func TestSelect(t *testing.T) {
	names := func(es []perflab.Experiment) string {
		var s []string
		for _, e := range es {
			s = append(s, e.Name)
		}
		return strings.Join(s, ",")
	}
	for list, want := range map[string]string{
		"fig8":           "fig8",
		" faults , fig8": "fig8,faults",
		"all":            "fig8,fig9,jumpstart,faults,fig10,fig11",
		"fig11,all":      "fig8,fig9,jumpstart,faults,fig10,fig11",
	} {
		got, err := perflab.Select(list)
		if err != nil || names(got) != want {
			t.Errorf("Select(%q) = %q, %v; want %q", list, names(got), err, want)
		}
	}
	for _, list := range []string{"fig12", "fig8,fgi8", ""} {
		if got, err := perflab.Select(list); err == nil || !strings.Contains(err.Error(), "valid: all, fig8, fig9") {
			t.Errorf("Select(%q) = %q, %v; want an error listing the valid names", list, names(got), err)
		}
	}
}
