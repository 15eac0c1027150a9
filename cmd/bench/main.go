// Command bench runs the paper's evaluation experiments and prints
// the corresponding figure's rows or series.
//
// Usage:
//
//	bench -exp fig8|fig9|fig10|fig11|jumpstart|scale|chain|shapes|faults|all
//	      [-quick] [-no-shapes] [-workers N] [-json path] [-cpuprofile path] [-memprofile path]
//
// -exp also accepts a comma-separated list (e.g. -exp chain,shapes).
// With -json, the rows of the machine-readable experiments (fig8,
// scale, chain, shapes and faults) are also written to the given path
// as one JSON document, so CI can archive guest-cycles/req,
// smashed-vs-dispatched bind counts, and fault-containment counters
// across runs. Host time per request is not measured here: that is the
// ledger's `req_host_ns` (go run ./benchmarks, see benchmarks/README.md).
// -cpuprofile and -memprofile write pprof profiles of whatever
// experiments ran (go tool pprof).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/perflab"
	"repro/internal/server"
)

// jsonReport is the -json output document. Only the experiments that
// actually ran appear; the rest stay null.
type jsonReport struct {
	Fig8   []experiments.Fig8Row     `json:"fig8,omitempty"`
	Scale  []experiments.ScalingRow  `json:"scale,omitempty"`
	Chain  []experiments.ChainRow    `json:"chain,omitempty"`
	Shapes *experiments.ShapesResult `json:"shapes,omitempty"`
	Faults *experiments.FaultsResult `json:"faults,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment (or comma-separated list): fig8, fig9, fig10, fig11, jumpstart, scale, chain, shapes, faults, all")
	quick := flag.Bool("quick", false, "reduced warmup/measurement volume")
	noShapes := flag.Bool("no-shapes", false, "disable typed object shapes in every experiment config")
	workers := flag.Int("workers", 4, "worker count for the scale experiment (compared against 1)")
	jsonPath := flag.String("json", "", "also write machine-readable results (fig8, scale, chain, shapes, faults) to this path")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for the faults experiment")
	faultRate := flag.Float64("fault-rate", 0.01, "per-draw injection probability for the faults experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file after the experiments")
	flag.Parse()

	pc := experiments.Full
	if *quick {
		pc = experiments.Quick
	}
	experiments.NoShapes = *noShapes

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			os.Exit(1)
		}
	}()

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(name)] = true
	}

	var report jsonReport

	run := func(name string, f func(perflab.Config) error) {
		if !selected["all"] && !selected[name] {
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		if err := f(pc); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("fig8", func(pc perflab.Config) error {
		rows, err := experiments.Fig8(pc)
		if err != nil {
			return err
		}
		experiments.ReportFig8(os.Stdout, rows)
		report.Fig8 = rows
		return nil
	})
	run("fig9", func(perflab.Config) error {
		res, err := experiments.Fig9()
		if err != nil {
			return err
		}
		server.Report(os.Stdout, res)
		return nil
	})
	run("jumpstart", func(perflab.Config) error {
		cfg := server.DefaultConfig()
		if *quick {
			cfg.Minutes = 20
			cfg.CyclesPerMinute = 1_200_000
		}
		c, err := experiments.Jumpstart(cfg)
		if err != nil {
			return err
		}
		experiments.ReportJumpstart(os.Stdout, c)
		return nil
	})
	run("scale", func(perflab.Config) error {
		cfg := server.DefaultConfig()
		if *quick {
			cfg.Minutes = 12
			cfg.CyclesPerMinute = 1_200_000
		}
		counts := []int{1}
		if *workers > 1 {
			counts = append(counts, *workers)
		}
		rows, err := experiments.Scaling(cfg, counts)
		if err != nil {
			return err
		}
		experiments.ReportScaling(os.Stdout, rows)
		report.Scale = rows
		return nil
	})
	run("chain", func(pc perflab.Config) error {
		rows, err := experiments.Chain(pc)
		if err != nil {
			return err
		}
		experiments.ReportChain(os.Stdout, rows)
		report.Chain = rows
		return nil
	})
	run("shapes", func(pc perflab.Config) error {
		res, err := experiments.Shapes(pc)
		if err != nil {
			return err
		}
		experiments.ReportShapes(os.Stdout, res)
		report.Shapes = res
		return res.GateErr()
	})
	run("faults", func(pc perflab.Config) error {
		res, err := experiments.Faults(pc, *faultSeed, *faultRate)
		if err != nil {
			return err
		}
		experiments.ReportFaults(os.Stdout, res)
		report.Faults = res
		if !res.OutputsMatch {
			return fmt.Errorf("faulty outputs diverged from JIT-disabled reference")
		}
		if res.SlowdownPct > 25 {
			return fmt.Errorf("faulty run %.1f%% slower than baseline (budget 25%%)", res.SlowdownPct)
		}
		return nil
	})
	run("fig10", func(pc perflab.Config) error {
		rows, err := experiments.Fig10(pc)
		if err != nil {
			return err
		}
		experiments.ReportFig10(os.Stdout, rows)
		return nil
	})
	run("fig11", func(pc perflab.Config) error {
		rows, err := experiments.Fig11(pc, nil)
		if err != nil {
			return err
		}
		experiments.ReportFig11(os.Stdout, rows)
		return nil
	})

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: marshal json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}
