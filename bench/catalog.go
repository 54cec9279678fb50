package main

// The names in this file are the benchmark's contract: later issues claim
// gains as "<metric> on <workload>", BENCHMARK.json lists exactly these
// names, and catalog_test.go fails when the two drift apart.

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
	// Serve selects the daemon harness (socket replay, window files) instead
	// of the batch one (trace file to report).
	Serve bool
	// Fixture names the trace the workload feeds the system under test.
	Fixture string
}

var workloads = []Workload{
	{
		Name:    "legacy-batch",
		Fixture: fixtureLegacy,
		Why:     "2015-era trace to report: 98% payload-less segments, so wire read/decode and flow tracking do most of the work and abp about 7%",
	},
	{
		Name:    "modern-batch",
		Fixture: fixtureModern,
		Why:     "the https-share 0.95 twin: same packet volume through wire, but ClientHello/SNI and ClassifyDomain replace HTTP parsing and pagemodel",
	},
	{
		Name:    "coalesced-batch",
		Fixture: fixtureCoalesced,
		Why:     "legacy trace after LRO-style coalescing of in-order body segments: same transactions in a third of the packets, so per-transaction work (HTTP parse, pagemodel, abp) weighs twice what it does there",
	},
	{
		Name:    "serve-live",
		Fixture: fixtureCoalesced,
		Serve:   true,
		Why:     "coalesced trace streamed over a unix socket into adtrace -serve: blast gives capacity, paced replay gives window freshness; the write side (windows, fsync, checkpoints)",
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// MetricDef describes one reported metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Floor is the smallest regression bound the metric may carry in
	// BENCHMARK.json (end-to-end metrics only); -selfcheck widens the bound
	// from here, never below it.
	Floor float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the ten metrics a user of the system sees, measured untraced.
// Every workload reports all ten; README.md says what each means on the batch
// workloads and on serve-live.
var endToEnd = []MetricDef{
	{"setup_s", "s", lower, 0.15},
	{"wall_s", "s", lower, 0.06},
	{"wall_w1_s", "s", lower, 0.06},
	{"wire_mb_s", "MB/s", higher, 0.06},
	{"cpu_s", "s", lower, 0.05},
	{"max_rss_mb", "MB", lower, 0.08},
	{"allocs_per_tx", "1/tx", lower, 0.01},
	{"window_lag_p50_ms", "ms", lower, 0.10},
	{"window_lag_p98_ms", "ms", lower, 0.15},
	{"serve_capacity_x", "x", higher, 0.06},
}

// perLayer are the traced-pass metrics, one block per layer in pipeline
// order. They carry no bound: they attribute, they do not gate.
var perLayer = []MetricDef{
	{"wire.read_s", "s", lower, 0},
	{"wire.read_ns_per_pkt", "ns", lower, 0},
	{"wire.read_allocs_per_pkt", "1/pkt", lower, 0},
	{"wire.read_mb", "MB", lower, 0},
	{"wire.read_resyncs", "count", lower, 0},
	{"wire.flow_s", "s", lower, 0},
	{"wire.flow_ns_per_pkt", "ns", lower, 0},
	{"wire.flow_allocs_per_pkt", "1/pkt", lower, 0},
	{"wire.flow_evicted_idle", "count", lower, 0},
	{"wire.flow_gaps", "count", lower, 0},

	{"analyzer.parse_s", "s", lower, 0},
	{"analyzer.ns_per_tx", "ns", lower, 0},
	{"analyzer.allocs_per_tx", "1/tx", lower, 0},
	{"analyzer.tx", "count", higher, 0},
	{"analyzer.tls_flows", "count", higher, 0},
	{"analyzer.parse_errors", "count", lower, 0},
	{"analyzer.intern_hit_ratio", "ratio", higher, 0},

	{"pipeline.analyze_s", "s", lower, 0},
	{"pipeline.analyze_w1_s", "s", lower, 0},
	{"pipeline.speedup_x", "x", higher, 0},
	{"pipeline.shard_skew", "ratio", lower, 0},
	{"weblog.sort_s", "s", lower, 0},

	{"pagemodel.build_s", "s", lower, 0},
	{"pagemodel.ns_per_tx", "ns", lower, 0},
	{"pagemodel.pages", "count", higher, 0},
	{"abp.compile_s", "s", lower, 0},
	{"abp.rules", "count", lower, 0},
	{"abp.classify_ns", "ns", lower, 0},
	{"abp.classify_uncached_ns", "ns", lower, 0},
	{"abp.domain_ns", "ns", lower, 0},
	{"abp.allocs_per_verdict", "1/verdict", lower, 0},
	{"abp.cache_hit_ratio", "ratio", higher, 0},
	{"abp.bloom_reject_ratio", "ratio", higher, 0},
	{"core.classify_all_s", "s", lower, 0},
	{"pipeline.classify_s", "s", lower, 0},
	{"pipeline.classify_tls_s", "s", lower, 0},
	{"intern.urls", "count", lower, 0},
	{"intern.mb", "MB", lower, 0},

	{"inference.aggregate_s", "s", lower, 0},
	{"inference.users", "count", higher, 0},
	{"report.print_s", "s", lower, 0},

	{"runz.run_s", "s", lower, 0},
	{"runz.overhead_s", "s", lower, 0},
	{"runz.ckpt_s", "s", lower, 0},
	{"runz.ckpt_count", "count", lower, 0},
	{"runz.ckpt_mb", "MB", lower, 0},

	{"daemon.run_s", "s", lower, 0},
	{"daemon.window_s", "s", lower, 0},
	{"daemon.emit_s", "s", lower, 0},
	{"daemon.windows", "count", higher, 0},
	{"daemon.emit_mb", "MB", lower, 0},
	{"daemon.live_users", "count", lower, 0},
	{"daemon.evicted_users", "count", higher, 0},

	{"rbn.simulate_s", "s", lower, 0},
	{"rbn.pkts", "count", higher, 0},
	{"webgen.world_s", "s", lower, 0},
	{"wire.sort_s", "s", lower, 0},
	{"loadgen.late_p98_ms", "ms", lower, 0},
	{"loadgen.sent_mb", "MB", higher, 0},

	{"trace.overhead_pct", "%", lower, 0},
}

// Sample is one reported metric value.
type Sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	// N is the number of measurements behind Value (a median, a percentile or
	// a single reading when 1).
	N int `json:"n,omitempty"`
}

// Metrics maps metric name to its sample.
type Metrics map[string]Sample

// fill builds the output map for defs from raw values, failing when a metric
// the catalogue promises was not measured: a silent hole would read as
// "unchanged" in a later comparison.
func fill(defs []MetricDef, vals map[string]float64, n map[string]int) (Metrics, []string) {
	out := make(Metrics, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = Sample{Value: v, Unit: d.Unit, Better: d.Better, N: n[d.Name]}
	}
	return out, missing
}
