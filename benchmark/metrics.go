package main

import "sparseart/internal/core"

// metricDef names one metric. BENCHMARK.json lists the same names,
// units and directions (a test holds the two together) and adds each
// end-to-end metric's regression bound, which -compare reads from it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string // per-layer metrics: the module measured
	Moves  string // per-layer metrics: the end-to-end metric × workload it should move
}

// workloadDef names one workload and records why it is there.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"point_wire", "1-point probes, Zipf(1.1) tiles, store warm in the default cache: wire and serve are at least half the latency, fsim and core changes must show nothing"},
	{"region_cold", "32-cube StrategyAuto region reads with a reader cache of stored bytes/8: store, fragcache, fragment, fsim and the core scan do the work, the hops are minor"},
	{"kernel_scan", "KernelSumRegion over 16-cubes, warm cache, few-byte reply: the same fragments and iterators as region_cold without result shipping"},
	{"ingest_mixed", "WriteBatch and DeleteRegion stream with background compaction beside probes paced at 200 req/s: build, encode, manifest log, compaction and GC do the work"},
}

// The end-to-end metrics, identical on every workload. Two numbers of
// the design are not here. failed_share is carried by the result's
// attempted and failed counts: a metric of the contract may never read
// 0, and a correct run's share is 0. The 99th percentile is the
// diagnostic load.p99_ms: over ten seeds on the reference box it
// spreads by 9 to 30 % of its median, past any bound the contract
// allows, and a gated metric that cannot repeat only produces noise.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
}

// coreKinds are the paper's five organizations, by the name their
// metrics carry.
var coreKinds = []struct {
	name string
	kind core.Kind
}{{"coo", core.COO}, {"linear", core.Linear}, {"gcsr", core.GCSR}, {"gcsc", core.GCSC}, {"csf", core.CSF}}

// perLayerMetrics is the traced run's output, in table order.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		pw = "point_wire"
		rc = "region_cold"
		ks = "kernel_scan"
		im = "ingest_mixed"
	)
	m := []metricDef{
		{"wire.req_codec_us", "us", "lower", "wire", "allocs_per_op, p50_ms, cpu_us_per_op on " + pw + "; about 0 on " + ks},
		{"wire.resp_codec_us", "us", "lower", "wire", "p50_ms, cpu_us_per_op on " + pw + " and " + rc},
		{"wire.allocs_per_msg", "count", "lower", "wire", "allocs_per_op on " + pw},
		{"wire.req_bytes", "B", "lower", "wire", "p50_ms on " + im},
		{"wire.resp_bytes", "B", "lower", "wire", "p50_ms on " + rc},
		{"wire.resp_codec_ns_per_point", "ns/point", "lower", "wire", "p50_ms, alloc_kb_per_op on " + rc},

		{"serve.client_hop_us", "us", "lower", "serve", "p50_ms, ops_per_s on " + pw},
		{"serve.router_self_us", "us", "lower", "serve", "p50_ms, ops_per_s on " + pw + "; load.p99_ms on " + rc + " (slowest shard sets the time)"},
		{"serve.router_fanout", "count", "lower", "serve", "load.p99_ms on " + rc},
		{"serve.null_hop_us", "us", "lower", "serve", "p50_ms on " + pw},
		{"serve.null_hop_allocs", "count", "lower", "serve", "allocs_per_op on " + pw},
		{"serve.overloaded", "count", "lower", "serve", "failed on every workload"},
		{"serve.inflight_max", "count", "lower", "serve", "load.p99_ms on " + im},

		{"store.query_self_us", "us", "lower", "store", "p50_ms on " + rc + " and " + pw},
		{"store.kernel_self_us", "us", "lower", "store", "p50_ms on " + ks},
		{"store.ingest_self_us", "us", "lower", "store", "ops_per_s, load.p99_ms on " + im},
		{"store.delete_self_us", "us", "lower", "store", "load.p99_ms on " + im},
		{"store.fragments_per_query", "count", "lower", "store", "p50_ms on " + rc + ", " + ks},
		{"store.index.candidates_per_query", "count", "lower", "store", "p50_ms on " + rc},
		{"store.filter.skip_rate", "ratio", "higher", "store", "p50_ms on " + pw + ", " + rc},
		{"store.compact.runs", "count", "lower", "store", "p99_ms, disk_bytes_per_user_byte on " + im},
		{"store.gc.pending_max", "count", "lower", "store", "disk_bytes_per_user_byte on " + im},
		{"store.epochs", "count", "lower", "store", "ops_per_s on " + im + " (manifest epochs published per op)"},

		{"fragcache.hit_rate", "ratio", "higher", "fragcache", "p50_ms, cpu_us_per_op on " + rc + "; must stay about 1 on " + pw},
		{"fragcache.evictions", "count", "lower", "fragcache", "p50_ms on " + rc + "; must stay 0 on " + pw},
		{"fragcache.resident_mb", "MB", "lower", "fragcache", "rss_peak_mb on " + rc},

		{"fragment.open_us", "us", "lower", "fragment", "p50_ms on " + rc},
		{"fragment.encode_us_per_knnz", "us/knnz", "lower", "fragment", "ops_per_s on " + im},
		{"fragment.bytes_per_nnz", "B/nnz", "lower", "fragment", "disk_bytes_per_user_byte on " + im},
	}
	for _, ck := range coreKinds {
		k := ck.name
		moves := "Table I cross-check; moves nothing end to end today"
		if k == "csf" {
			moves = "p50_ms on " + ks + ", " + rc + "; ops_per_s on " + im
		}
		m = append(m,
			metricDef{"core." + k + ".build_us_per_knnz", "us/knnz", "lower", "core", moves},
			metricDef{"core." + k + ".probe_ns", "ns", "lower", "core", moves},
			metricDef{"core." + k + ".scan_ns_per_nnz", "ns/nnz", "lower", "core", moves},
		)
	}
	return append(m,
		metricDef{"fsim.read_us", "us", "lower", "fsim", "p50_ms on " + rc + "; 0 on warm " + pw},
		metricDef{"fsim.read_ops", "count", "lower", "fsim", "p50_ms on " + rc},
		metricDef{"fsim.read_kb", "KB", "lower", "fsim", "p50_ms on " + rc},
		metricDef{"fsim.write_us", "us", "lower", "fsim", "ops_per_s on " + im},
		metricDef{"fsim.write_ops", "count", "lower", "fsim", "ops_per_s on " + im},
		metricDef{"fsim.write_kb", "KB", "lower", "fsim", "ops_per_s, disk_bytes_per_user_byte on " + im + "; 0 elsewhere"},
		metricDef{"fsim.opens", "count", "lower", "fsim", "p50_ms on " + rc},
		metricDef{"fsim.write_amp", "ratio", "lower", "fsim", "disk_bytes_per_user_byte, ops_per_s on " + im},

		metricDef{"trace.overhead_pct", "%", "lower", "obs", "validity of the traced numbers: p50 with the seams timed against p50 without"},
		metricDef{"obs.overhead_pct", "%", "lower", "obs", "p50 with the program's own registries enabled against p50 without; what observability costs on " + pw},
		metricDef{"trace.share.wire_serve_pct", "%", "lower", "obs", "the hops' share of e2e: at least 40 on " + pw + ", at most 25 on " + rc + ", at most 5 on " + ks},
		metricDef{"trace.share.store_pct", "%", "lower", "obs", "store, fragcache, fragment and core together"},
		metricDef{"trace.share.fsim_pct", "%", "lower", "obs", "file-system time inside requests"},

		metricDef{"load.samples", "count", "higher", "generator", "diagnostic"},
		metricDef{"load.p99_ms", "ms", "lower", "generator", "diagnostic: 99th percentile of the 1-client traced loop (the untraced run keeps its own in the result file)"},
		metricDef{"load.late_ms_p99", "ms", "lower", "generator", "diagnostic: below 1 ms the generator is not the bottleneck"},
		metricDef{"load.gc_pause_ms", "ms", "lower", "generator", "diagnostic"},
		metricDef{"load.reader_p99_ms", "ms", "lower", "generator", "diagnostic: " + im + " client B"},
		metricDef{"load.failed_share", "ratio", "lower", "generator", "diagnostic: failed / attempted"},
		metricDef{"load.open.r500.p99_ms", "ms", "lower", "generator", "diagnostic: open-loop probes at 500 req/s"},
		metricDef{"load.open.r1000.p99_ms", "ms", "lower", "generator", "diagnostic: open-loop probes at 1000 req/s"},
		metricDef{"load.open.r2000.p99_ms", "ms", "lower", "generator", "diagnostic: open-loop probes at 2000 req/s"},
		metricDef{"load.open.max_rate_ok", "1/s", "higher", "generator", "diagnostic: highest rate with p99 <= 5 ms, nothing refused, no growing backlog"},
	)
}
