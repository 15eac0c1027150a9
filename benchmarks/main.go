// Command benchmarks is the repository's one perf ledger: four site
// workloads, two clocks (simulated guest cycles and host time), the
// end-to-end metrics a user of the system sees, and — with -trace — a
// per-layer attribution measured from outside the program. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./benchmarks -workload steady_site -seed 1
//	go run ./benchmarks -workload all -trace trace.json
//	go run ./benchmarks -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// valueJSON is one metric value on the result line.
type valueJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the object printed as the last line of standard
// output for each workload.
type resultJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueJSON `json:"metrics"`
}

// report is everything one invocation of one workload measured.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer,omitempty"`
}

// resultLine is the report as the benchmark contract wants it: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (rep *report) resultLine() resultJSON {
	defs, m := endToEnd, rep.EndToEnd
	if rep.Traced {
		defs, m = perLayer, rep.PerLayer
	}
	out := resultJSON{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]valueJSON{}}
	for _, d := range defs {
		out.Metrics[d.Name] = valueJSON{m[d.Name], d.Unit}
	}
	return out
}

func (rep *report) print(w *os.File) {
	fmt.Fprintf(w, "# %s  seed=%d  seconds=%g  requests=%d  failed=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Attempted, rep.Failed)
	table := func(defs []metricDef, m metrics) {
		for _, d := range defs {
			fmt.Fprintf(w, "%-40s %18.6g %s\n", d.Name, m[d.Name], d.Unit)
		}
	}
	table(endToEnd, rep.EndToEnd)
	if rep.Traced {
		table(perLayer, rep.PerLayer)
	}
}

// pick returns the metrics defs name, 0 for any the workload did not
// measure.
func pick(m metrics, defs []metricDef) metrics {
	out := metrics{}
	for _, d := range defs {
		out[d.Name] = m[d.Name]
	}
	return out
}

// measure runs one workload once. spanFile, when not empty, receives
// the traced run's spans.
func measure(w workloadDef, seed int64, size sizing, traced bool, spanFile string) (*report, error) {
	r := newRun(seed, size, traced)
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep := &report{Workload: w.Name, Seed: seed, Seconds: size.seconds, Traced: traced,
		Attempted: r.attempted, Failed: r.failed, EndToEnd: pick(r.m, endToEnd)}
	if traced {
		r.m["ops_failed_share"] = float64(r.failed) / float64(r.attempted)
		rep.PerLayer = pick(r.m, perLayer)
		if spanFile != "" {
			if err := writeSpans(spanFile, append(r.tr.spans, r.workerSpans...)); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

func findWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return []workloadDef{w}, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// spanPath names the span file of one workload: -trace 1 picks a
// default under .bench_out, any other value is the file itself, with
// the workload's name added when several workloads share the flag.
func spanPath(flagValue, workload string, several bool) string {
	if flagValue == "1" {
		return ".bench_out/trace-" + workload + ".json"
	}
	if !several {
		return flagValue
	}
	ext := ""
	if dot := strings.LastIndexByte(flagValue, '.'); dot > strings.LastIndexByte(flagValue, '/') {
		flagValue, ext = flagValue[:dot], flagValue[dot:]
	}
	return flagValue + "-" + workload + ext
}

// selfcheck measures the untraced suite twice at one seed and fails
// if any end-to-end metric moved by more than its own bound, or a
// deterministic one moved at all.
func selfcheck(ws []workloadDef, seed int64, size sizing) error {
	bad := 0
	for _, w := range ws {
		a, err := measure(w, seed, size, false, "")
		if err != nil {
			return err
		}
		b, err := measure(w, seed, size, false, "")
		if err != nil {
			return err
		}
		lines, failed := compareRuns(a, b, !w.concurrent)
		fmt.Println(strings.Join(lines, "\n"))
		bad += failed
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d check(s) failed", bad)
	}
	return nil
}

// compareRuns renders one line per end-to-end metric of two runs of
// one workload and counts the lines that failed. With repeatable set,
// the deterministic metrics must be bit-equal.
func compareRuns(a, b *report, repeatable bool) (lines []string, failed int) {
	exact := map[string]bool{}
	for _, name := range deterministic {
		exact[name] = repeatable
	}
	for _, d := range endToEnd {
		x, y := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
		verdict := "ok  "
		if (exact[d.Name] && x != y) || math.Abs(y-x) > d.Bound*x {
			verdict = "FAIL"
			failed++
		}
		lines = append(lines, fmt.Sprintf("%s %-15s %-18s %16.6g %16.6g  %+7.2f%%  bound %.1f%%",
			verdict, a.Workload, d.Name, x, y, 100*(y-x)/x, 100*d.Bound))
	}
	if a.Failed+b.Failed > 0 {
		lines = append(lines, fmt.Sprintf("FAIL %-15s %d request(s) failed", a.Workload, a.Failed+b.Failed))
		failed++
	}
	return lines, failed
}

// manifest renders BENCHMARK.json from the tables in this package.
func manifest() ([]byte, error) {
	return json.MarshalIndent(map[string]any{
		"command":     []string{"go", "run", "./benchmarks"},
		"paths":       []string{"benchmarks"},
		"run_seconds": fullSize.seconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
}

// options are the command's flags.
type options struct {
	seed         int64
	workload     string
	seconds      float64
	quick        bool
	trace        string
	jsonPath     string
	selfcheck    bool
	updateGolden bool
	manifest     bool
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same request order")
	flag.StringVar(&o.workload, "workload", "all", "steady_site, interp_site, coldstart_site, workers_site or all")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase (default 20, or 1 with -quick)")
	flag.BoolVar(&o.quick, "quick", false, "small sizing, for smoke tests")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics only; 1 or a file name: also a traced run that reports the per-layer metrics and writes its spans")
	flag.StringVar(&o.jsonPath, "json", "", "also write every report to this file")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and fail if a metric moved by more than its bound")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite "+goldenPath+" from an interpreter-only engine and exit")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the tables in this package define it and exit")
	flag.Parse()
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func (o options) run() error {
	if o.manifest {
		data, err := manifest()
		if err != nil {
			return err
		}
		_, err = fmt.Printf("%s\n", data)
		return err
	}
	if o.updateGolden {
		text, err := goldenFromInterp()
		if err != nil {
			return err
		}
		return os.WriteFile(goldenPath, []byte(text), 0o644)
	}
	ws, err := findWorkloads(o.workload)
	if err != nil {
		return err
	}
	size := fullSize
	if o.quick {
		size = quickSize
	}
	if o.seconds > 0 {
		size.seconds = o.seconds
	}
	if o.selfcheck {
		return selfcheck(ws, o.seed, size)
	}

	traced := o.trace != "0" && o.trace != ""
	var reports []*report
	failed := 0
	for _, w := range ws {
		spanFile := ""
		if traced {
			spanFile = spanPath(o.trace, w.Name, len(ws) > 1)
		}
		rep, err := measure(w, o.seed, size, traced, spanFile)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		failed += rep.Failed
		rep.print(os.Stdout)
		line, err := json.Marshal(rep.resultLine())
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d request(s) failed or printed the wrong output", failed)
	}
	return nil
}
