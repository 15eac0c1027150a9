package server_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestSingleWorkerDeterminism: the server compiles inline on its one
// worker, so repeated runs under the same seed must produce
// bit-identical timelines.
func TestSingleWorkerDeterminism(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Minutes = 12
	cfg.CyclesPerMinute = 1_200_000

	base, err := server.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := server.Simulate(cfg)
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
	cfg := server.DefaultConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000
	res, err := server.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server.Report(os.Stderr, res)
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
