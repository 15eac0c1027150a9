package perflab_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/workload"
)

func TestMeasureProducesWeightedMean(t *testing.T) {
	cfg := jit.DefaultConfig()
	r, err := perflab.Measure(cfg, perflab.Config{WarmupRequests: 20, MeasureRequests: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Endpoints) != len(workload.Suite()) {
		t.Fatalf("endpoints = %d", len(r.Endpoints))
	}
	if r.WeightedMean <= 0 {
		t.Fatal("weighted mean not computed")
	}
	// The mean must lie within the endpoint range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ep := range r.Endpoints {
		lo = math.Min(lo, ep.MeanCycles)
		hi = math.Max(hi, ep.MeanCycles)
		if ep.Output == "" {
			t.Errorf("%s produced no output", ep.Name)
		}
		if len(ep.Samples) != 4 {
			t.Errorf("%s: %d samples", ep.Name, len(ep.Samples))
		}
	}
	if r.WeightedMean < lo || r.WeightedMean > hi {
		t.Errorf("weighted mean %v outside [%v, %v]", r.WeightedMean, lo, hi)
	}
	if r.CodeBytes == 0 {
		t.Error("no JITed code measured")
	}
}

func TestInterpreterSlowerThanRegion(t *testing.T) {
	pc := perflab.Config{WarmupRequests: 12, MeasureRequests: 3}
	region, err := perflab.Measure(jit.DefaultConfig(), pc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.Mode = jit.ModeInterp
	interp, err := perflab.Measure(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	if slowdown := (interp.WeightedMean/region.WeightedMean - 1) * 100; slowdown < 100 {
		t.Errorf("interpreter only %.1f%% slower than region JIT", slowdown)
	}
}

func TestReportRenders(t *testing.T) {
	cfg := jit.DefaultConfig()
	r, err := perflab.Measure(cfg, perflab.Config{WarmupRequests: 10, MeasureRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	perflab.Report(&sb, r)
	if !strings.Contains(sb.String(), "WEIGHTED MEAN") {
		t.Error("report missing summary row")
	}
}
