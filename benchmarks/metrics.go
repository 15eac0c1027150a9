package main

import "repro/internal/workload"

// metricDef names one metric. BENCHMARK.json repeats these tables
// (TestManifestMatchesTables keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists what a user of the system sees, measured on every
// workload from the untraced run. Bound is the share of the parent's
// median by which the metric may worsen before a change is rejected.
//
// The deterministic metrics (below) repeat bit for bit at a fixed seed
// (-selfcheck and the tests demand that); the guest-cycle bound covers
// only the ≤0.1% by which another seed's request order moves the
// simulated i-cache, so any change larger than that is real.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_host_ns", "ns", "lower", 0.20},
	{"rps", "1/s", "higher", 0.20},
	{"req_guest_cycles", "cycles", "lower", 0.005},
	{"req_allocs", "count", "lower", 0.01},
	{"req_alloc_bytes", "bytes", "lower", 0.01},
	{"code_bytes", "bytes", "lower", 0.001},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// deterministic metrics must be bit-equal between two runs at one seed.
var deterministic = []string{"req_guest_cycles", "code_bytes"}

// perLayer lists the metrics of single layers (layer = package name),
// reported by the traced run. A layer a workload does not exercise or
// measure reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Ahead-of-time pipeline, timed stage by stage on the site source.
		{Name: "lexer.tokenize_ms", Unit: "ms", Better: "lower"},
		{Name: "lexer.tokens", Unit: "count", Better: "lower"},
		{Name: "parser.parse_ms", Unit: "ms", Better: "lower"},
		{Name: "hphpc.optimize_ms", Unit: "ms", Better: "lower"},
		{Name: "emitter.emit_ms", Unit: "ms", Better: "lower"},
		{Name: "emitter.funcs", Unit: "count", Better: "lower"},
		{Name: "emitter.bc_instrs", Unit: "count", Better: "lower"},
		{Name: "hhbbc.optimize_ms", Unit: "ms", Better: "lower"},
		{Name: "hhbbc.bc_instrs", Unit: "count", Better: "lower"},
		{Name: "hhbbc.unit_bytes", Unit: "bytes", Better: "lower"},

		// JIT pipeline, replayed stage by stage through the exported
		// entry points.
		{Name: "region.transcfg_ms", Unit: "ms", Better: "lower"},
		{Name: "region.form_ms", Unit: "ms", Better: "lower"},
		{Name: "region.relax_ms", Unit: "ms", Better: "lower"},
		{Name: "region.regions", Unit: "count", Better: "lower"},
		{Name: "region.blocks", Unit: "count", Better: "lower"},
		{Name: "region.bc_instrs", Unit: "count", Better: "lower"},
		{Name: "hhir.build_ms", Unit: "ms", Better: "lower"},
		{Name: "hhir.instrs_built", Unit: "count", Better: "lower"},
		{Name: "hhir.optimize_ms", Unit: "ms", Better: "lower"},
		{Name: "hhir.instrs_optimized", Unit: "count", Better: "lower"},
		{Name: "vasm.lower_ms", Unit: "ms", Better: "lower"},
		{Name: "vasm.instrs_lowered", Unit: "count", Better: "lower"},
		{Name: "vasm.layout_ms", Unit: "ms", Better: "lower"},
		{Name: "vasm.regalloc_ms", Unit: "ms", Better: "lower"},
		{Name: "vasm.fuse_ms", Unit: "ms", Better: "lower"},
		{Name: "vasm.fused_instrs", Unit: "count", Better: "higher"},
		{Name: "vasm.instrs_final", Unit: "count", Better: "lower"},
		{Name: "mcode.assemble_ms", Unit: "ms", Better: "lower"},
		{Name: "mcode.code_bytes", Unit: "bytes", Better: "lower"},
		{Name: "machine.prepare_dispatch_ms", Unit: "ms", Better: "lower"},
		{Name: "jit.optimize_all_ms", Unit: "ms", Better: "lower"},
		{Name: "jit.optimized_translations", Unit: "count", Better: "lower"},
		{Name: "jit.profiling_translations", Unit: "count", Better: "lower"},
		{Name: "jit.bytes_profiling", Unit: "bytes", Better: "lower"},
		{Name: "jit.bytes_optimized", Unit: "bytes", Better: "lower"},
		{Name: "jit.replay_mismatches", Unit: "count", Better: "lower"},
		{Name: "jit.replay_coverage", Unit: "share", Better: "higher"},
		{Name: "jumpstart.encode_ms", Unit: "ms", Better: "lower"},
		{Name: "jumpstart.decode_ms", Unit: "ms", Better: "lower"},
		{Name: "jumpstart.snapshot_bytes", Unit: "bytes", Better: "lower"},

		// Cold start, per trial (coldstart_site).
		{Name: "vm.coldstart_host_ms", Unit: "ms", Better: "lower"},
		{Name: "vm.coldstart_guest_cycles", Unit: "cycles", Better: "lower"},
		{Name: "vm.coldstart_allocs", Unit: "count", Better: "lower"},
		{Name: "vm.coldstart_self_ms", Unit: "ms", Better: "lower"},

		// Execution, from counter deltas over the traced phase.
		{Name: "vm.req_host_ns_p50", Unit: "ns", Better: "lower"},
		{Name: "vm.req_host_ns_p99", Unit: "ns", Better: "lower"},
		{Name: "vm.req_samples", Unit: "count", Better: "higher"},
		{Name: "vm.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "vm.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "vm.req_guest_cycles", Unit: "cycles", Better: "lower"},
		{Name: "vm.worker_scaling", Unit: "share", Better: "higher"},
		{Name: "jit.lookups_per_req", Unit: "count", Better: "lower"},
		{Name: "jit.stale_links_per_req", Unit: "count", Better: "lower"},
		{Name: "jit.chain_mismatches_per_req", Unit: "count", Better: "lower"},
		{Name: "machine.enters_per_req", Unit: "count", Better: "lower"},
		{Name: "machine.chained_jumps_per_req", Unit: "count", Better: "higher"},
		{Name: "machine.chained_calls_per_req", Unit: "count", Better: "higher"},
		{Name: "machine.side_exits_per_req", Unit: "count", Better: "lower"},
		{Name: "machine.bind_requests_per_req", Unit: "count", Better: "lower"},
		{Name: "machine.guard_fails_per_req", Unit: "count", Better: "lower"},
		{Name: "machine.cycles_share", Unit: "share", Better: "higher"},
		{Name: "machine.cycles_optimized_share", Unit: "share", Better: "higher"},
		{Name: "interp.runs_per_req", Unit: "count", Better: "lower"},
		{Name: "interp.cycles_share", Unit: "share", Better: "lower"},
		{Name: "shapes.guard_fails_per_req", Unit: "count", Better: "lower"},
		{Name: "shapes.propic_hits_per_req", Unit: "count", Better: "higher"},
		{Name: "shapes.propic_misses_per_req", Unit: "count", Better: "lower"},
		{Name: "shapes.generic_prop_calls_per_req", Unit: "count", Better: "lower"},
		{Name: "runtime.increfs_per_req", Unit: "count", Better: "lower"},
		{Name: "runtime.decrefs_per_req", Unit: "count", Better: "lower"},
		{Name: "runtime.cow_copies_per_req", Unit: "count", Better: "lower"},
		{Name: "runtime.frees_per_req", Unit: "count", Better: "lower"},
		{Name: "runtime.live_objs_delta", Unit: "count", Better: "lower"},

		{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
		{Name: "ops_failed_share", Unit: "share", Better: "lower"},
	}
	// Host time by package, folded from a CPU profile of the traced phase.
	for _, pkg := range hostSharePkgs {
		defs = append(defs, metricDef{Name: "hostshare." + pkg, Unit: "share", Better: "lower"})
	}
	// One row per input program.
	for _, ep := range workload.Suite() {
		defs = append(defs,
			metricDef{Name: "endpoint." + ep.Name + ".guest_cycles", Unit: "cycles", Better: "lower"},
			metricDef{Name: "endpoint." + ep.Name + ".host_ns", Unit: "ns", Better: "lower"})
	}
	return defs
}

// metrics maps metric name to measured value.
type metrics map[string]float64
