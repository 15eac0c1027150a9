// Package repro's benchmarks are the quick host-time localizers for
// the perf ledger's rows (go run ./benchmarks). Run with:
//
//	go test -run '^$' -bench 'SteadyRequest|ColdStart' -benchmem .
//
// The paper's figures are cmd/bench's (go run ./cmd/bench), and the
// site's deterministic numbers are internal/perflab's TestBaseline.
package repro_test

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/hhbc"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/workload"
)

// BenchmarkSteadyRequest is the quick localizer for the ledger's
// steady_site / interp_site rows: one warmed pass over the
// workload.Combined() mix per iteration, output discarded, with
// allocations reported. `go test -bench SteadyRequest -benchmem`
// answers in seconds whether a host-time or allocation regression is
// in the request path (and in which tier) before the ledger is run.
func BenchmarkSteadyRequest(b *testing.B) {
	for _, v := range []struct {
		name string
		mode jit.Mode
	}{
		{"region", jit.ModeRegion},
		{"interp", jit.ModeInterp},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := jit.DefaultConfig()
			cfg.Mode = v.mode
			eng, eps, err := perflab.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			funcs := endpointFuncs(b, eng.Unit, eps)
			for i := 0; i < 40; i++ {
				pass(b, eng, funcs)
			}
			if v.mode == jit.ModeRegion && !eng.VM.JIT.Optimized() {
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
