// Command hhvm compiles and runs a PHP-subset source file through the
// full pipeline (parser → hphpc → emitter → hhbbc → VM) with a
// selectable execution mode, mirroring the modes compared in the
// paper's Figure 8.
//
// Usage:
//
//	hhvm [-mode interp|tracelet|profiling|region] [-requests N]
//	     [-stats] [-disas] [-prof-dump file] [-prof-load file]
//	     [-fault-rate P] [-fault-seed N] [-compile-workers N]
//	     [-no-shapes] file.php
//
// -prof-load jumpstarts the engine from a profile snapshot before the
// first request; -prof-dump persists the profile after the last one
// (inspect the result with the profdump tool). -fault-rate > 0 arms
// the deterministic fault injector (DESIGN.md §11) at probability P
// per draw for every fault kind, exercising the self-healing paths.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/jumpstart"
	"repro/internal/vasm"
)

func main() {
	cfg := jit.DefaultConfig()
	mode := flag.String("mode", "region", "execution mode: interp, tracelet, profiling, region")
	requests := flag.Int("requests", 1, "number of times to run the program (same engine; warms the JIT)")
	stats := flag.Bool("stats", false, "print JIT and heap statistics after the run")
	disas := flag.Bool("disas", false, "print the compiled bytecode instead of running")
	trigger := flag.Uint64("trigger", 0, "override the global retranslation trigger")
	profDump := flag.String("prof-dump", "", "write a profile snapshot to this file after the last request")
	profLoad := flag.String("prof-load", "", "jumpstart from a profile snapshot before the first request")
	faultRate := flag.Float64("fault-rate", 0, "arm the fault injector at this probability per draw (0 disables)")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for the fault injector")
	flag.IntVar(&cfg.CompileWorkers, "compile-workers", cfg.CompileWorkers, "goroutines the optimizing backend fans over (0/1 = one)")
	noShapes := flag.Bool("no-shapes", false, "disable typed object shapes (shape guards + property inline caches)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hhvm [flags] file.php")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	unit, err := core.Compile(string(src), core.CompileOptions{})
	if err != nil {
		fatal(err)
	}

	if *disas {
		for _, f := range unit.Funcs {
			fmt.Print(hhbc.Disassemble(unit, f))
		}
		return
	}

	switch *mode {
	case "interp":
		cfg.Mode = jit.ModeInterp
	case "tracelet":
		cfg.Mode = jit.ModeTracelet
	case "profiling":
		cfg.Mode = jit.ModeProfiling
	case "region":
		cfg.Mode = jit.ModeRegion
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *trigger != 0 {
		cfg.ProfileTrigger = *trigger
	}
	cfg.EnableShapes = !*noShapes
	if *faultRate > 0 {
		cfg.Faults = faultinject.New(faultinject.EnableAll(*faultSeed, *faultRate))
	}

	eng, err := core.NewEngine(unit, cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *profLoad != "" {
		snap, err := jumpstart.Load(*profLoad)
		if err != nil {
			fatal(fmt.Errorf("prof-load: %w", err))
		}
		jr := eng.LoadProfile(snap)
		if *stats {
			fmt.Fprintf(os.Stderr, "jumpstart: loaded %d funcs (%d translations); %d stale, %d unknown; optimized=%v\n",
				jr.LoadedFuncs, jr.LoadedTrans, len(jr.StaleFuncs), len(jr.UnknownFuncs), jr.Optimized)
			for _, name := range jr.StaleFuncs {
				fmt.Fprintf(os.Stderr, "jumpstart: stale (bytecode changed): %s\n", name)
			}
		}
	}
	var total uint64
	for i := 0; i < *requests; i++ {
		c, err := eng.RunRequest(os.Stdout)
		if err != nil {
			fatal(err)
		}
		total = c // last request's cost (steady state)
	}
	if *profDump != "" {
		if err := jumpstart.Save(*profDump, eng.ProfileSnapshot()); err != nil {
			fatal(fmt.Errorf("prof-dump: %w", err))
		}
	}
	if *stats {
		st := eng.Stats()
		hs := eng.Heap().Snapshot()
		fmt.Fprintf(os.Stderr, "\n--- stats (mode=%s) ---\n", *mode)
		fmt.Fprintf(os.Stderr, "last request: %d simulated cycles\n", total)
		fmt.Fprintf(os.Stderr, "translations: %d live, %d profiling, %d optimized\n",
			st.LiveTranslations, st.ProfilingTranslations, st.OptimizedTranslations)
		fmt.Fprintf(os.Stderr, "code bytes:   %d live, %d profiling, %d optimized\n",
			st.BytesLive, st.BytesProfiling, st.BytesOptimized)
		var alloc vasm.AllocStats
		var guards hhir.BuildStats
		var loads hhir.OptStats
		elided := 0
		eng.VM.JIT.ForEachTranslation(func(tr *jit.Translation) {
			if tr.Kind == jit.ModeRegion {
				alloc.Add(tr.Code.Alloc)
				guards.Add(tr.Code.Guards)
				loads.Add(tr.Code.Loads)
				elided += tr.Code.ElidedJumps
			}
		})
		fmt.Fprintf(os.Stderr, "guards:       %s (optimized code)\n", guards)
		fmt.Fprintf(os.Stderr, "loads:        %s (optimized code)\n", loads)
		fmt.Fprintf(os.Stderr, "regalloc:     %s; %d fallthrough jumps elided (optimized code)\n", alloc, elided)
		fmt.Fprintf(os.Stderr, "guard fails:  %d; side exits: %d; binds: %d\n",
			st.GuardFails, st.SideExits, st.BindRequests)
		fmt.Fprintf(os.Stderr, "shapes:       %d guards (%d failed), IC %d hits / %d misses / %d megamorphic, %d generic calls\n",
			st.ShapeGuards, st.ShapeGuardFails, st.PropICHits, st.PropICMisses, st.PropICMega, st.GenericPropCalls)
		fmt.Fprintf(os.Stderr, "heap:         %d increfs, %d decrefs, %d destructors, %d COW copies\n",
			hs.IncRefs, hs.DecRefs, hs.Destructs, hs.CowCopies)
		fmt.Fprintf(os.Stderr, "              %d frees, %d live objects, %d live strings, %d live arrays, %d over-releases\n",
			hs.Frees, hs.LiveObjs, hs.LiveStrs, hs.LiveArrs, hs.OverReleases)
		fmt.Fprintf(os.Stderr, "leases:       %d acquires, %d waits, %d steals; peak compile parallelism %d\n",
			st.LeaseAcquires, st.LeaseWaits, st.LeaseSteals, st.PeakCompileParallelism)
		if *faultRate > 0 {
			fmt.Fprintf(os.Stderr, "self-healing: %d injections fired, %d faults contained, %d quarantined, %d demoted, %d recycle runs, degrade level %d\n",
				cfg.Faults.TotalFired(), st.TransFaults, st.Quarantined, st.Demotions, st.RecycleRuns, st.DegradeLevel)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hhvm:", err)
	os.Exit(1)
}
