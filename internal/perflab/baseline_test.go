package perflab_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/perflab"
	"repro/internal/vasm"
)

var update = flag.Bool("update", false, "rewrite testdata/baseline.json from this run")

const baselinePath = "testdata/baseline.json"

// modeBaseline is what one execution mode does on the site at Quick
// volume. Every field repeats exactly at a fixed source, so a change
// that moves one moves the checked-in file with it.
type modeBaseline struct {
	// Guest cycles a measured request: traffic-weighted over the site,
	// and per endpoint.
	CyclesPerReq   float64            `json:"cycles_per_req"`
	EndpointCycles map[string]float64 `json:"endpoint_cycles_per_req"`
	CodeBytes      uint64             `json:"code_bytes"`
	// Measurement-phase counters per request.
	LookupsPerReq          float64 `json:"lookups_per_req"`
	GuardFailsPerReq       float64 `json:"guard_fails_per_req"`
	SideExitsPerReq        float64 `json:"side_exits_per_req"`
	ChainMismatchesPerReq  float64 `json:"chain_mismatches_per_req"`
	GenericPropCallsPerReq float64 `json:"generic_prop_calls_per_req"`
	// LiveCycleShare is the measurement phase's share of machine cycles
	// spent in live tracelets.
	LiveCycleShare float64 `json:"live_cycle_share"`
	// The JIT's modes: the vasm instructions a measured request runs, by
	// op (a superinstruction counts once).
	OpMixPerReq map[string]float64 `json:"vasm_mix_per_req,omitempty"`
	// Region mode only: siteIRDigest's fingerprint.
	IRDigest     string `json:"ir_digest,omitempty"`
	Translations int    `json:"translations,omitempty"`
}

// TestBaseline holds the site's deterministic numbers in every mode to
// testdata/baseline.json, byte for byte. A change that moves one
// rewrites the file with
//
//	go test ./internal/perflab -run TestBaseline -update
//
// and the file's diff states what it changed. Host time is not here:
// it is the ledger's (go run ./benchmarks).
func TestBaseline(t *testing.T) {
	modes := map[string]*modeBaseline{}
	for _, mode := range []jit.Mode{jit.ModeInterp, jit.ModeTracelet, jit.ModeProfiling, jit.ModeRegion} {
		cfg := jit.DefaultConfig()
		cfg.Mode = mode
		r, err := perflab.Measure(cfg, perflab.Quick)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		m := &modeBaseline{
			CyclesPerReq:           r.WeightedMean,
			EndpointCycles:         map[string]float64{},
			CodeBytes:              r.CodeBytes,
			LookupsPerReq:          r.SteadyPerReq(func(s jit.Stats) uint64 { return s.Lookups }),
			GuardFailsPerReq:       r.SteadyPerReq(func(s jit.Stats) uint64 { return s.GuardFails }),
			SideExitsPerReq:        r.SteadyPerReq(func(s jit.Stats) uint64 { return s.SideExits }),
			ChainMismatchesPerReq:  r.SteadyPerReq(func(s jit.Stats) uint64 { return s.ChainMismatches }),
			GenericPropCallsPerReq: r.SteadyPerReq(func(s jit.Stats) uint64 { return s.GenericPropCalls }),
			OpMixPerReq:            r.OpMixPerReq(),
		}
		for _, ep := range r.Endpoints {
			m.EndpointCycles[ep.Name] = ep.MeanCycles
		}
		if all := r.JITStats.MachineCycles - r.WarmStats.MachineCycles; all > 0 {
			m.LiveCycleShare = float64(r.JITStats.MachineCyclesLive-r.WarmStats.MachineCyclesLive) / float64(all)
		}
		if mode == jit.ModeRegion {
			m.IRDigest, m.Translations = siteIRDigest(t)
			t.Logf("site guest cycles: %.1f per region-mode request at Quick volume; IR digest %s over %d translations",
				m.CyclesPerReq, m.IRDigest, m.Translations)
			t.Logf("vasm mix: %.1f standalone ldimm of %.1f instructions per region-mode request",
				m.OpMixPerReq[vasm.LdImm.String()], total(m.OpMixPerReq))
		}
		modes[mode.String()] = m
	}
	got, err := json.MarshalIndent(modes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(baselinePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the site's numbers moved from %s (rewrite it with -update if the change means to move them):\n%s",
			baselinePath, lineDiff(string(want), string(got)))
	}
}

// siteIRDigest is one SHA-256 over the optimized HHIR and the
// register-allocated vasm of every translation the region-mode site
// compiles in 40 warm-up passes (profiling and live translations
// included), ordered by (function, entry pc, text), and how many
// translations it covers. A change that claims to leave the compiler's
// output alone keeps both.
func siteIRDigest(t *testing.T) (string, int) {
	eng, eps, err := perflab.NewEngine(jit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type unitText struct {
		fn, pc int
		text   string
	}
	var mu sync.Mutex
	var units []unitText
	eng.VM.JIT.SetAllocationCheck(func(hu *hhir.Unit, _, after *vasm.Unit) {
		u := unitText{hu.Func.ID, hu.Entry.BCStart, hu.String() + after.String()}
		mu.Lock()
		units = append(units, u)
		mu.Unlock()
	})
	if err := perflab.Warm(eng, eps, 40, nil); err != nil {
		t.Fatal(err)
	}
	if !eng.VM.JIT.Optimized() {
		t.Fatal("warm-up did not reach the optimized tier")
	}
	sort.Slice(units, func(a, b int) bool {
		x, y := units[a], units[b]
		if x.fn != y.fn {
			return x.fn < y.fn
		}
		if x.pc != y.pc {
			return x.pc < y.pc
		}
		return x.text < y.text
	})
	sum := sha256.New()
	for _, u := range units {
		io.WriteString(sum, u.text)
	}
	return fmt.Sprintf("%x", sum.Sum(nil)), len(units)
}

// total sums a mix.
func total(mix map[string]float64) float64 {
	var n float64
	for _, c := range mix {
		n += c
	}
	return n
}

// lineDiff lists the lines that differ between two renderings of the
// baseline, one "-want"/"+got" pair per line number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			fmt.Fprintf(&sb, "-%s\n+%s\n", a, b)
		}
	}
	return sb.String()
}
