// Package repro's benchmark harness regenerates every table and
// figure in the paper's evaluation (Section 6). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the figure's rows/series through b.Log and
// custom metrics (simulated guest cycles per request), so the output
// can be compared against the numbers recorded in EXPERIMENTS.md.
package repro_test

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/server"
	"repro/internal/workload"
)

var benchCfg = perflab.Config{WarmupRequests: 30, MeasureRequests: 6}

// BenchmarkFig8ExecutionModes regenerates Figure 8: the relative
// performance of the interpreter, the gen-1 tracelet JIT, the
// profiling JIT, and the profile-guided region JIT.
func BenchmarkFig8ExecutionModes(b *testing.B) {
	for _, mode := range []jit.Mode{jit.ModeInterp, jit.ModeTracelet,
		jit.ModeProfiling, jit.ModeRegion} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := jit.DefaultConfig()
			cfg.Mode = mode
			var mean float64
			for i := 0; i < b.N; i++ {
				r, err := perflab.Measure(cfg, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				mean = r.WeightedMean
			}
			b.ReportMetric(mean, "guest-cycles/req")
		})
	}
}

// BenchmarkFig9Startup regenerates Figure 9: the restart timeline
// (JITed code growth + RPS recovery).
func BenchmarkFig9Startup(b *testing.B) {
	cfg := server.DefaultConfig()
	cfg.Minutes = 20
	cfg.CyclesPerMinute = 1_200_000
	var res *server.Result
	for i := 0; i < b.N; i++ {
		r, err := server.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	if res != nil {
		server.Report(os.Stderr, res)
		b.ReportMetric(res.SteadyRPS, "steady-RPS/min")
		b.ReportMetric(float64(res.Samples[len(res.Samples)-1].CodeBytes), "code-bytes")
	}
}

// BenchmarkFig10Optimizations regenerates Figure 10: slowdown from
// disabling each JIT optimization individually.
func BenchmarkFig10Optimizations(b *testing.B) {
	base := jit.DefaultConfig()
	baseline, err := perflab.Measure(base, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		mod  func(*jit.Config)
	}{
		{"Inlining", func(c *jit.Config) { c.EnableInlining = false }},
		{"RCE", func(c *jit.Config) { c.EnableRCE = false }},
		{"GuardRelax", func(c *jit.Config) { c.EnableGuardRelax = false }},
		{"MethodDispatch", func(c *jit.Config) { c.EnableMethodDispatch = false }},
		{"PGOLayout", func(c *jit.Config) { c.PGOLayout = false; c.FunctionSort = false }},
		{"HugePages", func(c *jit.Config) { c.HugePages = false }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := jit.DefaultConfig()
			v.mod(&cfg)
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := perflab.Measure(cfg, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				slow = (r.WeightedMean/baseline.WeightedMean - 1) * 100
			}
			b.ReportMetric(slow, "slowdown-%")
		})
	}
}

// BenchmarkFig11CodeSize regenerates Figure 11: performance versus
// the JITed-code byte budget.
func BenchmarkFig11CodeSize(b *testing.B) {
	baseline, err := perflab.Measure(jit.DefaultConfig(), benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.2, 0.4, 0.7, 1.0, 1.2} {
		b.Run(fmt.Sprintf("budget_%.0f%%", frac*100), func(b *testing.B) {
			cfg := jit.DefaultConfig()
			cfg.CodeCacheLimit = uint64(frac * float64(baseline.CodeBytes))
			var rel float64
			for i := 0; i < b.N; i++ {
				r, err := perflab.Measure(cfg, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				rel = 100 * baseline.WeightedMean / r.WeightedMean
			}
			b.ReportMetric(rel, "rel-perf-%")
		})
	}
}

// BenchmarkAblationFunctionSort isolates the C3 function-sorting
// component of PGO layout (DESIGN.md §5 ablations).
func BenchmarkAblationFunctionSort(b *testing.B) {
	base := jit.DefaultConfig()
	baseline, err := perflab.Measure(base, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := jit.DefaultConfig()
	cfg.FunctionSort = false
	var slow float64
	for i := 0; i < b.N; i++ {
		r, err := perflab.Measure(cfg, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		slow = (r.WeightedMean/baseline.WeightedMean - 1) * 100
	}
	b.ReportMetric(slow, "slowdown-%")
}

// BenchmarkAblationRCESinking compares full RCE against no RCE,
// reporting the refcount-operation reduction alongside the cycle
// delta (the mechanism behind Section 5.3.2).
func BenchmarkAblationRCESinking(b *testing.B) {
	measure := func(rce bool) (float64, uint64) {
		cfg := jit.DefaultConfig()
		cfg.EnableRCE = rce
		eng, eps, err := perflab.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			for _, ep := range eps {
				if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
					b.Fatal(err)
				}
			}
		}
		h0 := eng.Heap().Snapshot()
		c0 := eng.Cycles()
		for _, ep := range eps {
			if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
				b.Fatal(err)
			}
		}
		h1 := eng.Heap().Snapshot()
		return float64(eng.Cycles() - c0), (h1.IncRefs - h0.IncRefs) + (h1.DecRefs - h0.DecRefs)
	}
	var withCycles, withoutCycles float64
	var withRC, withoutRC uint64
	for i := 0; i < b.N; i++ {
		withCycles, withRC = measure(true)
		withoutCycles, withoutRC = measure(false)
	}
	b.ReportMetric(100*(withoutCycles/withCycles-1), "slowdown-%")
	b.ReportMetric(float64(withoutRC-withRC), "rc-ops-eliminated")
}

// BenchmarkMachineExec measures raw host dispatch throughput:
// wall-clock time per request through a fully warmed region JIT, with
// dispatch fusion off (classic per-instruction accounting) and on
// (superinstructions + per-run cycle settlement). Guest cycles are
// identical in both; ns/op is the host-side difference.
func BenchmarkMachineExec(b *testing.B) {
	variants := []struct {
		name  string
		fused bool
	}{
		{"unfused", false},
		{"fused", true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := jit.DefaultConfig()
			cfg.FuseDispatch = v.fused
			eng, eps, err := perflab.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Warm through the full lifecycle so the measured loop runs
			// steady-state optimized code.
			for i := 0; i < 40; i++ {
				for _, ep := range eps {
					if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
						b.Fatal(err)
					}
				}
			}
			runtime.GC() // keep warmup garbage out of the timed loop
			reqs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ep := range eps {
					if _, _, err := perflab.RunEndpoint(eng, ep.Name); err != nil {
						b.Fatal(err)
					}
					reqs++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "host-ns/req")
		})
	}
}

// BenchmarkSteadyRequest is the quick localizer for the ledger's
// steady_site / interp_site rows: one warmed pass over the
// workload.Combined() mix per iteration, output discarded, with
// allocations reported. `go test -bench SteadyRequest -benchmem`
// answers in seconds whether a host-time or allocation regression is
// in the request path (and in which tier) before the ledger is run.
func BenchmarkSteadyRequest(b *testing.B) {
	for _, mode := range []jit.Mode{jit.ModeRegion, jit.ModeInterp} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := jit.DefaultConfig()
			cfg.Mode = mode
			eng, eps, err := perflab.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			funcs := endpointFuncs(b, eng.Unit, eps)
			for i := 0; i < 40; i++ {
				pass(b, eng, funcs)
			}
			if mode == jit.ModeRegion && !eng.VM.JIT.Optimized() {
				b.Fatal("warm-up did not reach the optimized tier")
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(b, eng, funcs)
			}
		})
	}
}

// endpointFuncs resolves the endpoint wrappers of a workload.Combined()
// unit, in suite order.
func endpointFuncs(b *testing.B, unit *hhbc.Unit, eps []workload.Endpoint) []*hhbc.Func {
	var funcs []*hhbc.Func
	for _, ep := range eps {
		f, ok := unit.FuncByName(workload.EndpointFunc(ep.Name))
		if !ok {
			b.Fatalf("combined unit lacks %s", ep.Name)
		}
		funcs = append(funcs, f)
	}
	return funcs
}

// pass makes one request to each endpoint, output discarded.
func pass(b *testing.B, eng *core.Engine, funcs []*hhbc.Func) {
	for _, f := range funcs {
		v, err := eng.VM.CallFunc(f, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		eng.Heap().DecRef(v)
	}
}

// BenchmarkColdStart is the quick localizer for the ledger's
// coldstart_site row: one iteration compiles workload.Combined() ahead
// of time, starts a fresh region-JIT engine and makes 10 round-robin
// passes over the endpoints, through profiling, the global
// retranslation and the first optimized requests, with allocations
// reported. Add -cpuprofile or -memprofile to see which layer a cold
// start pays for.
func BenchmarkColdStart(b *testing.B) {
	src, eps := workload.Combined()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unit, err := core.Compile(src, core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(unit, jit.DefaultConfig(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		funcs := endpointFuncs(b, unit, eps)
		for round := 0; round < 10; round++ {
			pass(b, eng, funcs)
		}
		if !eng.VM.JIT.Optimized() {
			b.Fatal("10 rounds did not reach the optimized tier")
		}
	}
}
