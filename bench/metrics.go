package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The two tables below
// are the harness's copy of that file's end_to_end and per_layer lists;
// bench_test.go fails when they drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" | "lower"
	Bound  float64 // end-to-end only: tolerated relative regression
}

// endToEnd is reported by every workload (the benchmark contract wants
// every end-to-end metric on every run). README.md says what each one
// measures on each workload, and how the bounds follow from the spreads
// measured on the sizing machine (each at least about three times the
// widest quartile spread seen over ten seeds, capped at the contract's
// 25 %).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_edges_per_s", "edges/s", "higher", 0.25},
	{"fresh_query_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_s", "s", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.20},
	{"state_bytes", "bytes", "lower", 0.02},
	{"coverage_ratio", "ratio", "higher", 0.02},
}

// perLayer is reported by the traced run. The first block holds the
// numbers of single workload phases (measured on the untraced process
// run, 0 on a workload without that phase); the rest is the in-process
// ladder plus counters scraped from the servers.
var perLayer = []metricDef{
	// Workload phases (process run).
	{"recovery_s", "s", "lower", 0},
	{"http_ingest_edges_per_s", "edges/s", "higher", 0},
	{"churn_ops_per_s", "ops/s", "higher", 0},
	{"fresh_query_p90_ms", "ms", "lower", 0},
	{"pull_round_p50_ms", "ms", "lower", 0},
	{"read_qps", "1/s", "higher", 0},
	{"read_p99_ms", "ms", "lower", 0},
	{"checkpoint_p50_ms", "ms", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"server_rss_peak_mb", "MB", "lower", 0},
	// Generator.
	{"workload.gen.ns_per_edge", "ns", "lower", 0},
	{"workload.gen.lag_p95_ms", "ms", "lower", 0},
	// Wire plane.
	{"wire.append_batch.ns_per_edge", "ns", "lower", 0},
	{"wire.decode_batch.ns_per_edge", "ns", "lower", 0},
	{"wire.append_op_batch.ns_per_op", "ns", "lower", 0},
	{"wire.decode_op_batch.ns_per_op", "ns", "lower", 0},
	{"wire.bytes_per_edge", "bytes", "lower", 0},
	{"wire.loopback.ns_per_edge", "ns", "lower", 0},
	{"wire.frames", "count", "lower", 0},
	{"wire.backpressure_stalls", "count", "lower", 0},
	// Write-ahead log.
	{"wal.append.ns_per_edge", "ns", "lower", 0},
	{"wal.append_ops.ns_per_op", "ns", "lower", 0},
	{"wal.bytes_per_edge", "bytes", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.replay.ns_per_edge", "ns", "lower", 0},
	{"wal.truncate.ms", "ms", "lower", 0},
	// Routing and the sketch.
	{"distributed.route.ns_per_edge", "ns", "lower", 0},
	{"core.add_edges.ns_per_edge", "ns", "lower", 0},
	{"core.add_edges.kept_share", "ratio", "lower", 0},
	{"core.add_edges.allocs_per_batch", "count", "lower", 0},
	{"core.offline_pass.ns_per_edge", "ns", "lower", 0},
	// Engine ingest.
	{"server.ingest.ns_per_edge", "ns", "lower", 0},
	{"server.ingest_wal.ns_per_edge", "ns", "lower", 0},
	{"server.ingest_ops.ns_per_op", "ns", "lower", 0},
	{"server.http_ingest.ns_per_edge", "ns", "lower", 0},
	{"server.http_ingest.bytes_per_edge", "bytes", "lower", 0},
	{"server.batches", "count", "lower", 0},
	{"server.ingest_stalls", "count", "lower", 0},
	// Refresh and query.
	{"core.clone.ms", "ms", "lower", 0},
	{"core.merge_all.ms", "ms", "lower", 0},
	{"core.graph.ms", "ms", "lower", 0},
	{"bipartite.build_cover_index.ms", "ms", "lower", 0},
	{"greedy.max_cover.ms", "ms", "lower", 0},
	{"server.refresh.ms", "ms", "lower", 0},
	{"server.refresh_idle.us", "us", "lower", 0},
	{"server.query_miss.ms", "ms", "lower", 0},
	{"server.query_hit.us", "us", "lower", 0},
	{"server.http_query.us", "us", "lower", 0},
	{"server.refreshes", "count", "lower", 0},
	{"server.refresh_skips", "count", "higher", 0},
	{"server.cache_hit_share", "ratio", "higher", 0},
	// Persistence.
	{"core.write_to.ms", "ms", "lower", 0},
	{"core.read_sketch.ms", "ms", "lower", 0},
	{"server.checkpoint.ms", "ms", "lower", 0},
	{"server.restore.ms", "ms", "lower", 0},
	// Dynamic (L0) mode.
	{"l0.apply.ns_per_op", "ns", "lower", 0},
	{"l0.merge.ms", "ms", "lower", 0},
	{"l0.recover.ms", "ms", "lower", 0},
	{"l0.state_bytes", "bytes", "lower", 0},
	// Cluster.
	{"cluster.serve_state.ms", "ms", "lower", 0},
	{"cluster.pull_now.ms", "ms", "lower", 0},
	{"cluster.pull.bytes", "bytes", "lower", 0},
	{"cluster.query.ms", "ms", "lower", 0},
	{"cluster.not_modified_share", "ratio", "higher", 0},
	{"cluster.pull_failures", "count", "lower", 0},
	// Facade and process.
	{"streamcover.ingest.ns_per_edge", "ns", "lower", 0},
	{"covserved.cpu_user_s", "s", "lower", 0},
	{"covserved.cpu_sys_s", "s", "lower", 0},
	// The tracer itself.
	{"trace.overhead_share", "ratio", "lower", 0},
}

// workloadDef names one workload of BENCHMARK.json.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) (*procResult, error)
}

var workloads = []workloadDef{
	{"wire-durable", "production ingest path: wire decode, engine, WAL append, shard sketches, with checkpoints as stalls and a SIGKILL recovery; queries do almost nothing", runWireDurable},
	{"mixed-fresh", "paced light ingest beside a closed-loop fresh-query client (refresh path does the work), then a cached read burst that bypasses refresh", runMixedFresh},
	{"tenants", "the other planes: HTTP JSON ingest into a sketch namespace, then wire op churn (insert/delete sliding window) into a dynamic L0 namespace", runTenants},
	{"cluster-pair", "two peered nodes: paced ingest into B while A pulls B's state and answers fresh cluster-wide queries; WAL and JSON absent", runClusterPair},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// dist summarizes a timing sample the way the metrics guide asks: the
// median, the highest percentile that still has at least ten samples
// beyond it, and the sample count.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	HighPct float64 `json:"high_pct,omitempty"`
	High    float64 `json:"high,omitempty"`
}

// quantile returns the q-quantile (0..1) of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.5)}
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(len(s))*(1-p) >= 10 {
			d.HighPct, d.High = p*100, quantile(s, p)
			break
		}
	}
	return d
}

// percentile is the p-quantile (0..1) of an unsorted sample.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (exclusive
// method), the rule the benchmark contract judges spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}
