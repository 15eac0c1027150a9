// Command fleet runs the fleet-scale serving simulation: N hosts
// behind a load-balancer model, diurnal Zipfian traffic from a
// simulated user population, a central profile-aggregation service,
// rolling restarts, and overload shedding. See DESIGN.md §12.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/fleet"
)

func main() {
	cfg := fleet.DefaultConfig()
	flag.IntVar(&cfg.Hosts, "hosts", cfg.Hosts, "fleet size")
	flag.IntVar(&cfg.Minutes, "minutes", cfg.Minutes, "simulated horizon in minutes")
	cycles := flag.Uint64("cycles", cfg.CyclesPerMinute, "full-capacity host cycle budget per simulated minute")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "traffic seed (equal seeds give bit-identical runs)")
	flag.Float64Var(&cfg.Utilization, "util", cfg.Utilization, "steady demand as fraction of fleet capacity")
	flag.IntVar(&cfg.Users, "users", cfg.Users, "simulated user population size")
	flag.Float64Var(&cfg.UserZipfS, "user-zipf", cfg.UserZipfS, "Zipf s for user activity")
	flag.Float64Var(&cfg.EndpointZipfS, "ep-zipf", cfg.EndpointZipfS, "Zipf s for endpoint popularity")
	flag.Float64Var(&cfg.DiurnalAmp, "diurnal-amp", cfg.DiurnalAmp, "diurnal sinusoid amplitude (0 = flat)")
	flag.IntVar(&cfg.DiurnalPeriod, "diurnal-period", cfg.DiurnalPeriod, "diurnal period in minutes")
	flag.Float64Var(&cfg.UniformFraction, "uniform-frac", cfg.UniformFraction, "traffic fraction sprayed uniformly instead of least-loaded")
	flag.Float64Var(&cfg.CapacitySpread, "cap-spread", cfg.CapacitySpread, "per-host capacity stagger (hardware generations)")
	flag.IntVar(&cfg.PublishEvery, "publish-every", cfg.PublishEvery, "minutes between profile publish+merge rounds (0 = aggregator off)")
	flag.Float64Var(&cfg.AggDecay, "agg-decay", cfg.AggDecay, "aggregator decay weight for the previous aggregate")
	flag.IntVar(&cfg.RestartAt, "restart-at", cfg.RestartAt, "minute the rolling restart starts (0 = no deploy)")
	flag.IntVar(&cfg.RestartStagger, "restart-stagger", cfg.RestartStagger, "minutes between successive host restarts")
	flag.IntVar(&cfg.RestartDown, "restart-down", cfg.RestartDown, "minutes each host is out of rotation")
	flag.IntVar(&cfg.RestartCount, "restart-count", cfg.RestartCount, "hosts to restart (0 = whole fleet)")
	flag.BoolVar(&cfg.WarmRestart, "warm", cfg.WarmRestart, "restarting hosts pull the aggregator's warm aggregate")
	flag.Float64Var(&cfg.OverloadFactor, "overload", cfg.OverloadFactor, "demand multiplier during the overload window")
	flag.IntVar(&cfg.OverloadAt, "overload-at", cfg.OverloadAt, "minute the overload window opens")
	flag.IntVar(&cfg.OverloadMinutes, "overload-minutes", cfg.OverloadMinutes, "overload window length (0 = no overload)")
	flag.BoolVar(&cfg.DisableShed, "no-shed", cfg.DisableShed, "disable overload shedding (hosts can die)")
	flag.Float64Var(&cfg.ShedRatio, "shed-ratio", cfg.ShedRatio, "assigned/capacity ratio that triggers shedding")
	flag.Float64Var(&cfg.DeathBacklog, "death-backlog", cfg.DeathBacklog, "backlog/capacity ratio that kills an unprotected host")
	flag.IntVar(&cfg.JIT.CompileWorkers, "compile-workers", cfg.JIT.CompileWorkers, "per-host goroutines the optimizing backend fans over (0/1 = one)")
	flag.Float64Var(&cfg.VerifySample, "verify-sample", cfg.VerifySample, "per-host fraction of requests re-executed on a shadow interpreter and cross-checked (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file after the simulation")
	flag.Parse()
	cfg.CyclesPerMinute = *cycles

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fleet: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	res, err := fleet.Simulate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
	fleet.Report(os.Stdout, res)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet: memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fleet: memprofile:", err)
			os.Exit(1)
		}
	}
}
