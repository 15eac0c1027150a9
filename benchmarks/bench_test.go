package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// testSize is quickSize cut down to what a tier-1 test can afford.
var testSize = sizing{seconds: 0.2, setups: 1, warmRounds: quickSize.warmRounds,
	coldRounds: quickSize.coldRounds, minReps: 2}

func workloadNamed(t *testing.T, name string) workloadDef {
	t.Helper()
	ws, err := findWorkloads(name)
	if err != nil {
		t.Fatal(err)
	}
	return ws[0]
}

// TestDeterministicMetricsRepeat earns the tight bounds: two fresh
// runs of one seed must agree bit for bit on guest cycles and code
// size, and within 1% on allocations.
func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, name := range []string{"steady_site", "coldstart_site"} {
		w := workloadNamed(t, name)
		a, err := measure(w, 7, testSize, false, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(w, 7, testSize, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed+b.Failed > 0 {
			t.Errorf("%s: %d requests failed", name, a.Failed+b.Failed)
		}
		for _, metric := range deterministic {
			if x, y := a.EndToEnd[metric], b.EndToEnd[metric]; x != y || x == 0 {
				t.Errorf("%s %s: %v then %v, want equal and not 0", name, metric, x, y)
			}
		}
		if x, y := a.EndToEnd["req_allocs"], b.EndToEnd["req_allocs"]; math.Abs(x-y) > 0.01*x {
			t.Errorf("%s req_allocs: %v then %v, want within 1%%", name, x, y)
		}
		for _, d := range endToEnd {
			if a.EndToEnd[d.Name] == 0 {
				t.Errorf("%s %s is 0; end-to-end metrics must never be", name, d.Name)
			}
		}
	}
}

// TestTracedRunReportsKnownLayers runs the traced cold start: the
// stage-by-stage replay must reproduce the published code, and every
// metric a workload records must be one the tables name.
func TestTracedRunReportsKnownLayers(t *testing.T) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if known[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		known[d.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics; the manifest allows 128", len(perLayer))
	}
	for _, name := range []string{"coldstart_site", "workers_site", "interp_site"} {
		r := newRun(7, testSize, true)
		if err := workloadNamed(t, name).run(r); err != nil {
			t.Fatal(err)
		}
		for metric := range r.m {
			if !known[metric] {
				t.Errorf("%s records %s, which no table names", name, metric)
			}
		}
		if name == "interp_site" {
			if r.m["machine.enters_per_req"] != 0 || r.m["interp.runs_per_req"] == 0 {
				t.Errorf("interp_site: machine enters %v, interp runs %v per request; want none and some",
					r.m["machine.enters_per_req"], r.m["interp.runs_per_req"])
			}
			continue
		}
		if r.m["jit.replay_mismatches"] != 0 || r.m["jit.optimized_translations"] == 0 {
			t.Errorf("%s: replay mismatches %v over %v translations, want 0 over some",
				name, r.m["jit.replay_mismatches"], r.m["jit.optimized_translations"])
		}
		if len(r.tr.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
	}
}

func TestBlockIsSeededWeightedPermutation(t *testing.T) {
	s, err := newSite()
	if err != nil {
		t.Fatal(err)
	}
	a := s.block(rand.New(rand.NewSource(3)))
	b := s.block(rand.New(rand.NewSource(3)))
	c := s.block(rand.New(rand.NewSource(4)))
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different blocks")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same block")
	}
	count := make([]int, len(s.eps))
	for _, ep := range a {
		count[ep]++
	}
	for i, ep := range s.eps {
		want := int(math.Max(1, math.Round(blockBase*ep.Weight)))
		if count[i] != want {
			t.Errorf("%s appears %d times in a block, want %d", ep.Name, count[i], want)
		}
	}
}

func TestWrongGoldenFailsSetupAndRequests(t *testing.T) {
	s, err := newSite()
	if err != nil {
		t.Fatal(err)
	}
	unit, err := core.Compile(s.src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkGolden(unit); err != nil {
		t.Fatalf("committed golden file: %v", err)
	}
	s.golden[2][0] ^= 1
	if err := s.checkGolden(unit); err == nil {
		t.Error("checkGolden accepted a flipped byte")
	}
	r := &run{site: s, size: testSize, m: metrics{}}
	if _, err := r.coldTrial(); err != nil {
		t.Fatal(err)
	}
	if r.failed != testSize.coldRounds {
		t.Errorf("%d requests failed against a golden file wrong for one endpoint, want %d", r.failed, testSize.coldRounds)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds float64       `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != fullSize.seconds {
		t.Errorf("run_seconds %v, the full sizing measures %v", manifest.RunSeconds, fullSize.seconds)
	}
	var want []workloadDef
	for _, w := range workloads {
		want = append(want, workloadDef{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(manifest.Workloads, want) {
		t.Errorf("workloads differ:\n manifest %+v\n tables   %+v", manifest.Workloads, want)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n manifest %+v\n tables   %+v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n manifest %+v\n tables   %+v", manifest.PerLayer, perLayer)
	}
}

// Protobuf writers for the profile the reader is tested on.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, payload []byte) []byte {
	b = pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(payload)))
	return append(b, payload...)
}

func TestHostSharesFoldsProfileByPackage(t *testing.T) {
	names := []string{"", "repro/internal/machine.(*Machine).Exec", "runtime.mallocgc",
		"repro/internal/interp.(*Env).Run", "runtime.gcBgMarkWorker", "runtime.memmove",
		"repro/internal/hhir.Build"}
	var prof []byte
	for _, s := range names {
		prof = pbBytes(prof, 6, []byte(s))
	}
	for id := uint64(1); id < uint64(len(names)); id++ {
		fn := pbInt(pbInt(nil, 1, id), 2, id)                   // Function{id, name}
		loc := pbBytes(pbInt(nil, 1, id), 4, pbInt(nil, 1, id)) // Location{id, Line{function_id}}
		prof = pbBytes(pbBytes(prof, 5, fn), 4, loc)
	}
	sample := func(value uint64, locs ...uint64) {
		var packed []byte
		for _, l := range locs {
			packed = pbVarint(packed, l)
		}
		s := pbBytes(nil, 1, packed)
		s = pbBytes(s, 2, pbVarint(pbVarint(nil, 1), value)) // count, nanoseconds
		prof = pbBytes(prof, 2, s)
	}
	sample(40, 1)    // machine self time
	sample(10, 5, 1) // memmove called from machine
	sample(20, 2, 3) // allocation on behalf of interp
	sample(20, 4)    // background collector
	sample(10, 6)    // a package with no bucket of its own
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := hostShares(zipped.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"machine": 0.5, "go_malloc": 0.2, "go_gc": 0.2, "other": 0.1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hostShares = %v, want %v", got, want)
	}
	if _, err := hostShares(zipped.Bytes()[:zipped.Len()/2]); err == nil {
		t.Error("a truncated profile was accepted")
	}
}

func TestQuietDecile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10, 11}
	if got := quietDecile(xs); got != 2 {
		t.Errorf("quietDecile = %v, want 2", got)
	}
	if got := median(xs); got != 6 {
		t.Errorf("median = %v, want 6", got)
	}
}
