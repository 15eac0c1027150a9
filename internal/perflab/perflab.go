// Package perflab is the A/B performance-comparison harness modeled
// on the tool of the same name (Bakshy & Frachtenberg) the paper uses:
// one server process running the whole site (the combined endpoint
// unit), warmed up through the JIT lifecycle, then measured by
// replaying weighted endpoint requests and reporting the weighted
// average per-request cost with confidence intervals. Every experiment
// cmd/bench runs is built on it (Experiments), and
// testdata/baseline.json pins the site's deterministic numbers.
package perflab

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/vasm"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// WarmupRequests per endpoint before measurement.
	WarmupRequests int
	// MeasureRequests per endpoint in the measurement phase.
	MeasureRequests int
	// Endpoints overrides the default suite (names must exist in the
	// combined unit).
	Endpoints []workload.Endpoint
}

// Quick is the reduced volume of tests and `cmd/bench -quick`.
var Quick = Config{WarmupRequests: 30, MeasureRequests: 6}

// Full is cmd/bench's default volume.
var Full = Config{WarmupRequests: 60, MeasureRequests: 15}

// EndpointResult is the measured cost of one endpoint.
type EndpointResult struct {
	Name   string
	Weight float64
	// MeanCycles per request across the measurement phase.
	MeanCycles float64
	// CI95 is the 95% confidence half-interval (1.96 SE).
	CI95 float64
	// Samples are the raw per-request cycle counts.
	Samples []float64
	// Output is the endpoint's guest output (consistency checks).
	Output string
}

// Result aggregates a run.
type Result struct {
	Endpoints []EndpointResult
	// WeightedMean is the traffic-weighted average cycles/request —
	// the headline number every figure reports.
	WeightedMean float64
	// JITStats after warmup+measurement.
	JITStats jit.Stats
	// WarmStats is the snapshot taken between warmup and measurement:
	// steady-state per-request rates (dispatcher lookups, chained
	// jumps, ...) are (JITStats - WarmStats) / MeasuredRequests.
	WarmStats jit.Stats
	// MeasuredRequests counts requests in the measurement phase.
	MeasuredRequests int
	// CodeBytes is the steady-state JITed code footprint.
	CodeBytes uint64
	// OpMix counts the vasm instructions the measurement phase ran, by
	// op (machine.Machine.OpMix).
	OpMix *[vasm.OpCount]uint64
}

// OpMixPerReq is OpMix per measured request, by op name, the ops that
// ran only.
func (r *Result) OpMixPerReq() map[string]float64 {
	if r.OpMix == nil || r.MeasuredRequests == 0 {
		return nil
	}
	mix := map[string]float64{}
	for op, n := range r.OpMix {
		if n > 0 {
			mix[vasm.Op(op).String()] = float64(n) / float64(r.MeasuredRequests)
		}
	}
	return mix
}

// SteadyPerReq is a counter's measurement-phase rate per request, such
// as the dispatcher Lookup rate direct chaining drives toward one.
func (r *Result) SteadyPerReq(get func(jit.Stats) uint64) float64 {
	if r.MeasuredRequests == 0 {
		return 0
	}
	return float64(get(r.JITStats)-get(r.WarmStats)) / float64(r.MeasuredRequests)
}

// NewEngine builds a fresh engine over the combined site unit.
func NewEngine(cfg jit.Config) (*core.Engine, []workload.Endpoint, error) {
	src, eps := workload.Combined()
	unit, err := core.Compile(src, core.CompileOptions{})
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(unit, cfg, io.Discard)
	if err != nil {
		return nil, nil, err
	}
	return eng, eps, nil
}

// RunEndpoint executes one request against an endpoint, returning its
// cycle cost and output.
func RunEndpoint(eng *core.Engine, name string) (uint64, string, error) {
	return RunEndpointVM(eng.VM, name)
}

// RunEndpointVM executes one request against an endpoint on a
// specific worker VM (concurrent serving), returning its cycle cost
// and output. Each worker owns its meter, so costs are per-worker.
func RunEndpointVM(v *vm.VM, name string) (uint64, string, error) {
	fn, ok := v.Env.Unit.FuncByName(workload.EndpointFunc(name))
	if !ok {
		return 0, "", fmt.Errorf("undefined endpoint %s", name)
	}
	var out strings.Builder
	v.SetOut(&out)
	before := v.Meter.Cycles
	val, err := v.CallFunc(fn, nil, nil)
	v.Heap.DecRef(val)
	return v.Meter.Cycles - before, out.String(), err
}

// Warm serves rounds round-robin passes over eps on eng, output
// discarded. A non-nil stop is asked before each pass and ends the
// warm-up early once it reports true.
func Warm(eng *core.Engine, eps []workload.Endpoint, rounds int, stop func() bool) error {
	for r := 0; r < rounds && (stop == nil || !stop()); r++ {
		for _, ep := range eps {
			if _, _, err := RunEndpoint(eng, ep.Name); err != nil {
				return fmt.Errorf("%s: %w", ep.Name, err)
			}
		}
	}
	return nil
}

// Measure runs the suite under one JIT configuration.
func Measure(cfg jit.Config, pc Config) (*Result, error) {
	eng, eps, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if pc.Endpoints != nil {
		eps = pc.Endpoints
	}

	// Warmup: profiling → global trigger → optimized publish, with
	// endpoints interleaved the way production traffic would be.
	firstOut := map[string]string{}
	for i := 0; i < pc.WarmupRequests; i++ {
		for _, ep := range eps {
			_, out, err := RunEndpoint(eng, ep.Name)
			if err != nil {
				return nil, fmt.Errorf("endpoint %s warmup: %w", ep.Name, err)
			}
			if i == 0 {
				firstOut[ep.Name] = out
			} else if out != firstOut[ep.Name] {
				return nil, fmt.Errorf("endpoint %s: nondeterministic output:\n got %q\nwant %q",
					ep.Name, out, firstOut[ep.Name])
			}
		}
	}

	// Measurement: endpoints interleave round-robin, the way mixed
	// production traffic hits a server (this keeps the instruction
	// working set honest for the locality experiments).
	res := &Result{WarmStats: eng.Stats(), OpMix: new([vasm.OpCount]uint64)}
	eng.VM.Machine.OpMix = res.OpMix
	defer func() { eng.VM.Machine.OpMix = nil }()
	var wsum float64
	byName := map[string]*EndpointResult{}
	for _, ep := range eps {
		er := &EndpointResult{Name: ep.Name, Weight: ep.Weight, Output: firstOut[ep.Name]}
		byName[ep.Name] = er
	}
	for i := 0; i < pc.MeasureRequests; i++ {
		for _, ep := range eps {
			c, out, err := RunEndpoint(eng, ep.Name)
			if err != nil {
				return nil, fmt.Errorf("endpoint %s measure: %w", ep.Name, err)
			}
			if out != firstOut[ep.Name] {
				return nil, fmt.Errorf("endpoint %s: output changed during measurement", ep.Name)
			}
			byName[ep.Name].Samples = append(byName[ep.Name].Samples, float64(c))
		}
	}
	for _, ep := range eps {
		er := byName[ep.Name]
		er.MeanCycles, er.CI95 = meanCI(er.Samples)
		res.Endpoints = append(res.Endpoints, *er)
		res.WeightedMean += er.MeanCycles * ep.Weight
		wsum += ep.Weight
	}
	if wsum > 0 {
		res.WeightedMean /= wsum
	}
	res.JITStats = eng.Stats()
	res.MeasuredRequests = pc.MeasureRequests * len(eps)
	res.CodeBytes = res.JITStats.BytesOptimized + res.JITStats.BytesLive
	return res, nil
}

// meanCI returns the mean and a 95% confidence half-width (1.96 SE).
func meanCI(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, 1.96 * sd / math.Sqrt(float64(len(xs)))
}

// Report renders a result table.
func Report(w io.Writer, r *Result) {
	eps := append([]EndpointResult(nil), r.Endpoints...)
	sort.Slice(eps, func(i, j int) bool { return eps[i].Weight > eps[j].Weight })
	fmt.Fprintf(w, "%-18s %8s %14s %10s\n", "endpoint", "weight", "cycles/req", "±95%")
	for _, ep := range eps {
		fmt.Fprintf(w, "%-18s %8.2f %14.0f %10.0f\n", ep.Name, ep.Weight, ep.MeanCycles, ep.CI95)
	}
	fmt.Fprintf(w, "%-18s %8s %14.0f\n", "WEIGHTED MEAN", "", r.WeightedMean)
}
