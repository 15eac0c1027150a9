package experiments_test

import (
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/perflab"
)

// TestFig8Shape checks the headline ordering of Figure 8.
func TestFig8Shape(t *testing.T) {
	rows, err := experiments.Fig8(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	experiments.ReportFig8(os.Stderr, rows)
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
	rows, err := experiments.Fig11(experiments.Quick, []float64{0.1, 0.4, 1.0, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	experiments.ReportFig11(os.Stderr, rows)
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

// TestChainAcceptance is the acceptance criterion for direct
// chaining: with chaining on, the steady-state dispatcher Lookup rate
// must drop by at least 10x in both tracelet and region mode, the
// guest cost must not regress, and every endpoint's output must stay
// bit-identical across the toggle (Chain itself fails on divergence).
func TestChainAcceptance(t *testing.T) {
	rows, err := experiments.Chain(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	experiments.ReportChain(os.Stderr, rows)
	byMode := map[string]map[bool]experiments.ChainRow{}
	for _, r := range rows {
		if byMode[r.Mode] == nil {
			byMode[r.Mode] = map[bool]experiments.ChainRow{}
		}
		byMode[r.Mode][r.Chained] = r
	}
	for mode, pair := range byMode {
		off, on := pair[false], pair[true]
		if off.BindsSmashed != 0 || off.ChainedJumps != 0 || off.ChainedCalls != 0 {
			t.Errorf("%s unchained run shows chaining activity: %+v", mode, off)
		}
		if on.BindsSmashed == 0 {
			t.Errorf("%s chained run never smashed a bind site", mode)
		}
		if on.LookupsPerReq <= 0 {
			t.Errorf("%s chained lookups/req = %.2f, want > 0 (at least entry lookups)",
				mode, on.LookupsPerReq)
			continue
		}
		if ratio := off.LookupsPerReq / on.LookupsPerReq; ratio < 10 {
			t.Errorf("%s lookup drop %.1fx (%.2f -> %.2f lookups/req), want >= 10x",
				mode, ratio, off.LookupsPerReq, on.LookupsPerReq)
		}
		if on.CyclesPerReq > off.CyclesPerReq {
			t.Errorf("%s chaining regressed guest cost: %.0f -> %.0f cycles/req",
				mode, off.CyclesPerReq, on.CyclesPerReq)
		}
	}
}

// TestFig10Directions checks every ablation slows the system down.
func TestFig10Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 is slow")
	}
	rows, err := experiments.Fig10(perflab.Config{WarmupRequests: 30, MeasureRequests: 5})
	if err != nil {
		t.Fatal(err)
	}
	experiments.ReportFig10(os.Stderr, rows)
	for _, r := range rows {
		if r.SlowdownPct < -2.5 {
			t.Errorf("disabling %s sped things up by %.1f%%", r.Optimization, -r.SlowdownPct)
		}
	}
}

// TestShapesAcceptance runs the shapes ablation at quick volume and
// holds it to the acceptance gate: >=5x fewer generic property-helper
// calls per request, improved guest cycles, guard-only monomorphic
// access, and bit-identical outputs across the toggle. Per endpoint the
// toggle must not cost cycles; it need not win any: a megamorphic site
// declines to speculate by design (DESIGN.md §14) and runs the same
// generic helper either way, so shape_mega ties exactly. (It used to
// show a few percent only because the receiver-class guard was widened
// with shapes on; the region-wide type flow now proves that guard in
// both configurations.)
func TestShapesAcceptance(t *testing.T) {
	res, err := experiments.Shapes(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	experiments.ReportShapes(os.Stderr, res)
	if err := res.GateErr(); err != nil {
		t.Error(err)
	}
	for _, row := range res.Rows {
		if row.Speedup < 1.0 {
			t.Errorf("endpoint %s regressed with shapes on: %.3fx", row.Endpoint, row.Speedup)
		}
	}
	if res.GuardFailsPerReq != 0 {
		t.Errorf("steady-state shape guards failed (%.1f/req): optimized code is guessing wrong layouts",
			res.GuardFailsPerReq)
	}
}
