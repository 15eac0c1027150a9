// Command bench runs the paper's evaluation experiments from
// perflab's table and prints the corresponding figure's rows or
// series.
//
// Usage:
//
//	bench -exp fig8|fig9|fig10|fig11|jumpstart|faults|all
//	      [-quick] [-json path] [-cpuprofile path] [-memprofile path]
//
// -exp also accepts a comma-separated list (e.g. -exp fig8,faults); an
// unknown name exits with status 2 and the list of valid ones. The
// faults experiment fails the run (status 1) if its outputs diverge
// from the interpreter's or it is more than 25% slower.
// With -json, the rows of the machine-readable experiments (fig8 and
// faults) are also written to the given path as one JSON document, so
// CI can archive guest-cycles/req and fault-containment counters
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

	"repro/internal/perflab"
)

func main() {
	exp := flag.String("exp", "all", "experiment (or comma-separated list): fig8, fig9, fig10, fig11, jumpstart, faults, all")
	quick := flag.Bool("quick", false, "reduced warmup/measurement volume")
	jsonPath := flag.String("json", "", "also write machine-readable results (fig8, faults) to this path")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for the faults experiment")
	faultRate := flag.Float64("fault-rate", 0.01, "per-draw injection probability for the faults experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file after the experiments")
	flag.Parse()

	exps, err := perflab.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

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

	s := &perflab.Session{Out: os.Stdout, Quick: *quick, FaultSeed: *faultSeed, FaultRate: *faultRate}
	for _, e := range exps {
		fmt.Printf("\n===== %s =====\n", e.Name)
		if err := e.Run(s); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&s.JSON, "", "  ")
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
