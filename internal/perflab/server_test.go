package perflab_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/perflab"
)

// TestSingleWorkerDeterminism: the server compiles inline on its one
// worker, so repeated runs under the same seed must produce
// bit-identical timelines.
func TestSingleWorkerDeterminism(t *testing.T) {
	t.Parallel()
	cfg := perflab.DefaultServerConfig()
	cfg.Minutes = 12
	cfg.CyclesPerMinute = 1_200_000

	base, err := perflab.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := perflab.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if again.SteadyRPS != base.SteadyRPS {
		t.Errorf("SteadyRPS %v != %v", again.SteadyRPS, base.SteadyRPS)
	}
	if len(again.Samples) != len(base.Samples) {
		t.Fatalf("%d samples != %d", len(again.Samples), len(base.Samples))
	}
	for i := range base.Samples {
		if again.Samples[i] != base.Samples[i] {
			t.Errorf("minute %d diverged: got %+v, want %+v", i+1, again.Samples[i], base.Samples[i])
		}
	}
	if again.MinutesTo90 != base.MinutesTo90 {
		t.Errorf("MinutesTo90 %v != %v", again.MinutesTo90, base.MinutesTo90)
	}
}

// TestStartupTimeline reproduces Figure 9's qualitative shape: code
// grows during profiling, the optimize event fires, and RPS climbs
// from a depressed warmup level to (and past) steady state.
func TestStartupTimeline(t *testing.T) {
	t.Parallel()
	cfg := perflab.DefaultServerConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000
	res, err := perflab.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perflab.ReportTimeline(os.Stderr, res)
	if len(res.Samples) != cfg.Minutes {
		t.Fatalf("expected %d samples, got %d", cfg.Minutes, len(res.Samples))
	}
	// Code grows monotonically-ish and an optimize event appears.
	sawOpt := false
	for _, s := range res.Samples {
		if strings.Contains(s.Event, "C") {
			sawOpt = true
		}
	}
	if !sawOpt {
		t.Error("the global retranslation trigger never fired")
	}
	// RPS at the start is below steady; by the end it reaches ~steady.
	first := res.Samples[0].RPSPct
	last := res.Samples[len(res.Samples)-1].RPSPct
	if first >= 95 {
		t.Errorf("first-minute RPS %.1f%% should be well below steady state", first)
	}
	if last < 90 {
		t.Errorf("final RPS %.1f%% should have recovered to steady state", last)
	}
	// The fleet-wave window pushes RPS above steady state.
	over := false
	for _, s := range res.Samples {
		if s.RPSPct > 110 {
			over = true
		}
	}
	if !over {
		t.Error("no above-steady-state stretch (fleet redirect) observed")
	}
}

// TestMinutesTo90Sentinel exercises both MinutesTo90 paths: a run
// long enough to warm up reports a real (positive) minute and
// Reached90() == true; a run cut off before warmup reports the
// explicit MinutesTo90Never sentinel, never a fake minute.
func TestMinutesTo90Sentinel(t *testing.T) {
	t.Parallel()
	cfg := perflab.DefaultServerConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000
	reached, err := perflab.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reached.Reached90() {
		t.Fatal("20-minute run never reached 90% steady RPS")
	}
	if reached.MinutesTo90 <= 0 {
		t.Fatalf("MinutesTo90 = %v, want a positive minute", reached.MinutesTo90)
	}

	cfg.Minutes = 2
	cut, err := perflab.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Reached90() {
		t.Fatalf("2-minute run claims 90%% steady RPS at minute %v", cut.MinutesTo90)
	}
	if cut.MinutesTo90 != perflab.MinutesTo90Never {
		t.Fatalf("MinutesTo90 = %v, want sentinel %v", cut.MinutesTo90, perflab.MinutesTo90Never)
	}
}

// TestJumpstartBeatsColdStart is the acceptance criterion for the
// jumpstart subsystem: under the same seed and configuration, a server
// warm-started from a profile snapshot must reach 90% of steady-state
// RPS in strictly fewer simulated minutes than a cold start.
func TestJumpstartBeatsColdStart(t *testing.T) {
	t.Parallel()
	cfg := perflab.DefaultServerConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000

	cold, err := perflab.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := perflab.WarmSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Jumpstart = snap
	warm, err := perflab.Simulate(warmCfg)
	if err != nil {
		t.Fatal(err)
	}

	if cold.MinutesTo90 < 0 {
		t.Fatalf("cold start never reached 90%% steady RPS in %d minutes", cfg.Minutes)
	}
	if warm.MinutesTo90 < 0 {
		t.Fatalf("jumpstarted start never reached 90%% steady RPS in %d minutes", cfg.Minutes)
	}
	if warm.MinutesTo90 >= cold.MinutesTo90 {
		t.Errorf("jumpstart must reach 90%% steady RPS strictly sooner: warm=minute %.0f, cold=minute %.0f",
			warm.MinutesTo90, cold.MinutesTo90)
	}

	jl := warm.JumpstartLoad
	if jl.LoadedTrans == 0 || jl.LoadedFuncs == 0 {
		t.Errorf("jumpstart loaded nothing: %+v", jl)
	}
	if !jl.Optimized {
		t.Error("jumpstart did not fire the global retranslation trigger")
	}
	if len(jl.StaleFuncs) != 0 || len(jl.UnknownFuncs) != 0 {
		t.Errorf("identical source must produce no stale/unknown functions: stale=%v unknown=%v",
			jl.StaleFuncs, jl.UnknownFuncs)
	}

	// The warm timeline must carry the J event instead of A/C.
	sawJ := false
	for _, s := range warm.Samples {
		if strings.Contains(s.Event, "J") {
			sawJ = true
		}
		if strings.Contains(s.Event, "C") {
			t.Error("jumpstarted run should not hit the live-profiling optimize event")
		}
	}
	if !sawJ {
		t.Error("no J event in the jumpstarted timeline")
	}
}
