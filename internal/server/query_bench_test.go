package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/workload"
)

// benchEngine builds an engine over the dense-degree workload, ingests
// everything and publishes one snapshot — the steady state the query
// benchmarks measure against.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	const n, m = 200, 20000
	inst := workload.LargeSets(n, m, 0.3, 1)
	cfg := Config{
		NumSets: n, NumElems: m, K: 10,
		Eps: 0.3, Seed: 7, EdgeBudget: 40 * n,
		Shards: 8,
	}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	for lo := 0; lo < len(edges); lo += 4096 {
		hi := lo + 4096
		if hi > len(edges) {
			hi = len(edges)
		}
		if _, err := e.Ingest(edges[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.Refresh(); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkQueryKCoverCached is the high-QPS hot path: the same query
// against an unchanged snapshot, read off the picks its run already made.
func BenchmarkQueryKCoverCached(b *testing.B) {
	e := benchEngine(b)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(Query{Algo: AlgoKCover, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFirstQuery times q as the first query on a fresh snapshot: every
// iteration makes the published snapshot forget its run (nobody else
// holds it: no ticker, one goroutine), so the query pays the run's set-up
// and every pick — what a one-shot greedy on that graph costs.
func benchFirstQuery(b *testing.B, q Query) {
	e := benchEngine(b)
	defer e.Close()
	snap, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.runOnce, snap.run = sync.Once{}, nil
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryKCoverUncached is bitset lazy greedy to k = 10 from an
// empty cover — the cost of the first query on a fresh snapshot.
func BenchmarkQueryKCoverUncached(b *testing.B) {
	benchFirstQuery(b, Query{Algo: AlgoKCover, K: 10})
}

// BenchmarkQueryGreedyUncached prices the most expensive query algo
// (full greedy set cover) as a snapshot's first query.
func BenchmarkQueryGreedyUncached(b *testing.B) {
	benchFirstQuery(b, Query{Algo: AlgoGreedy})
}

// BenchmarkQueryKSweep is the read burst of bench/'s mixed-fresh workload:
// one static snapshot at that workload's sizes (see refreshBench), kcover
// with k drawn from the harness's seeded Zipf over 1..128, one query an
// iteration. Only a k above every k asked before extends the snapshot's
// run; at -benchtime=1x it times the first query alone.
func BenchmarkQueryKSweep(b *testing.B) {
	e, err := New(refreshBenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	base := refreshBenchBase()
	for lo := 0; lo < len(base); lo += 4096 {
		if _, err := e.Ingest(base[lo:min(lo+4096, len(base))]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.Refresh(); err != nil {
		b.Fatal(err)
	}
	z := hashing.NewZipf(hashing.NewRNG(101), 128, 1.0)
	ks := make([]int, 1<<12) // drawn off the clock, cycled
	for i := range ks {
		ks[i] = z.Draw() + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(Query{Algo: AlgoKCover, K: ks[i%len(ks)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRefreshIdle measures Refresh's idle short-circuit: no
// new edges since the published snapshot, so no clone or merge runs.
func BenchmarkQueryRefreshIdle(b *testing.B) {
	e := benchEngine(b)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRefreshDirty measures the fixed cost of a refresh that
// finds almost nothing changed: each iteration re-sends one known edge to
// re-arm the idle check, so every shard sheds to the published bar and
// cuts an empty delta, and the coordinator walks the published view once
// (core.MergeViews), adopts its arrays as the graph and builds the cover
// index. BenchmarkRefreshDeltaCut prices a refresh between which real
// edges arrived.
func BenchmarkQueryRefreshDirty(b *testing.B) {
	e := benchEngine(b)
	defer e.Close()
	edge := stream.Drain(stream.Shuffled(workload.LargeSets(200, 20000, 0.3, 1).G, 3))[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ingest(edge); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// refreshBench is the mixed-fresh workload of bench/ at its own sizes: a
// Zipf instance of 1000 sets over 10^6 elements (≈5.3M edges an epoch,
// later epochs the same graph over new element ids), two shards, budget
// 200 000.
var refreshBench struct {
	once sync.Once
	base []bipartite.Edge
}

const refreshBenchElems = 1_000_000

// refreshBenchBase generates the epoch once per process.
func refreshBenchBase() []bipartite.Edge {
	refreshBench.once.Do(func() {
		inst := workload.Zipf(1000, refreshBenchElems, 500_000, 0.9, 0.7, 1)
		refreshBench.base = stream.Drain(stream.Shuffled(inst.G, 2))
	})
	return refreshBench.base
}

// benchRefreshBetweenEdges times Refresh alone on an engine of cfg warmed
// with one epoch, with 170 000 edges never sent before (what 4M edges/s
// deliver between two fresh queries of the closed-loop client) applied by
// the shards before every timed call. With fullCut the edges arrive in two
// halves around a refresh whose merge fails: the product's own fallback,
// after which the timed refresh finds shards that must cut in full —
// the refresh before shards cut deltas. An engine serves at most
// perEngine timed refreshes (0: any number); the rest go to a fresh one,
// warmed off the clock like the first.
func benchRefreshBetweenEdges(b *testing.B, cfg Config, fullCut bool, perEngine int) {
	b.StopTimer()
	b.ReportAllocs()
	if perEngine <= 0 {
		perEngine = b.N
	}
	for left := b.N; left > 0; left -= perEngine {
		benchRefreshOneEngine(b, cfg, fullCut, min(left, perEngine), nil)
	}
}

// firstQueryTimes splits the clock of BenchmarkFreshQueryDeltaCut by stage.
type firstQueryTimes struct{ refresh, graph, query time.Duration }

// benchRefreshOneEngine times iters refreshes on one engine. With stages
// set it also queries the warm-up's last snapshot, and times after every
// refresh the new snapshot's Graph and its first kcover k = 20 query,
// adding each stage's time to stages.
func benchRefreshOneEngine(b *testing.B, cfg Config, fullCut bool, iters int, stages *firstQueryTimes) {
	base := refreshBenchBase()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	probe := &probeMode{Mode: e.mode} // wraps MergeStates only: the shard states are the product's
	e.mode = probe

	next, buf := 0, make([]bipartite.Edge, 4096)
	ingest := func(n int) {
		for n > 0 {
			chunk := buf[:min(len(buf), n)]
			for i := range chunk {
				edge := base[next%len(base)]
				edge.Elem += uint32(next / len(base) * refreshBenchElems)
				chunk[i] = edge
				next++
			}
			if _, err := e.Ingest(chunk); err != nil {
				b.Fatal(err)
			}
			n -= len(chunk)
		}
	}
	// Two refreshes before the clock: an instance's second one sheds the
	// bulk of what the shards held above the first published bar, once.
	for _, n := range []int{len(base), 170_000} {
		ingest(n)
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
	first := Query{Algo: AlgoKCover, K: 20}
	if stages != nil {
		if _, err := e.Query(first); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < iters; i++ {
		if fullCut {
			ingest(85_000)
			probe.mu.Lock()
			probe.failBefore = 1
			probe.mu.Unlock()
			if _, err := e.Refresh(); !errors.Is(err, errProbeMerge) {
				b.Fatalf("failing refresh returned %v", err)
			}
			ingest(85_000)
		} else {
			ingest(170_000)
		}
		if _, err := e.Stats(); err != nil { // rides the mailboxes: every batch is applied
			b.Fatal(err)
		}
		start := time.Now()
		b.StartTimer()
		snap, err := e.Refresh()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if stages == nil {
			continue
		}
		refreshed := time.Now()
		b.StartTimer()
		_, err = snap.Graph()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		built := time.Now()
		b.StartTimer()
		_, err = e.QuerySnapshot(snap, first)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		stages.refresh += refreshed.Sub(start)
		stages.graph += built.Sub(refreshed)
		stages.query += time.Since(built)
	}
	if e.ModeName() != ModeSketch {
		return // only sketch shards cut deltas
	}
	if full, delta := e.fullCuts.Load(), e.deltaCuts.Load(); fullCut && delta != 2*int64(iters+1) || !fullCut && full != 2 {
		b.Fatalf("%d full / %d delta cuts over %d iterations", full, delta, iters)
	}
}

// BenchmarkRefreshDeltaCut / BenchmarkRefreshFullCut are the two sides of
// the delta refresh (see benchRefreshBetweenEdges).
func BenchmarkRefreshDeltaCut(b *testing.B) {
	benchRefreshBetweenEdges(b, refreshBenchConfig(), false, 0)
}
func BenchmarkRefreshFullCut(b *testing.B) {
	benchRefreshBetweenEdges(b, refreshBenchConfig(), true, 0)
}

// BenchmarkFreshQueryDeltaCut is what a fresh query pays on the refresh
// path between which BenchmarkRefreshDeltaCut's new edges arrived: the
// Refresh, then the new snapshot's first kcover k = 20 query, which
// materializes its graph (timed apart as graph-ms/op; a refresh that
// carried the graph forward leaves only the cover index to build) and runs
// greedy (query-ms/op).
func BenchmarkFreshQueryDeltaCut(b *testing.B) {
	b.StopTimer()
	b.ReportAllocs()
	var stages firstQueryTimes
	benchRefreshOneEngine(b, refreshBenchConfig(), false, b.N, &stages)
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(stages.refresh), "refresh-ms/op")
	b.ReportMetric(perOp(stages.graph), "graph-ms/op")
	b.ReportMetric(perOp(stages.query), "query-ms/op")
}

func refreshBenchConfig() Config {
	return Config{
		NumSets: 1000, NumElems: refreshBenchElems, K: 20,
		Eps: 0.3, Seed: 7, EdgeBudget: 200_000, Shards: 2,
	}
}

// BenchmarkWeightedRefresh is BenchmarkRefreshFullCut's traffic on a
// weighted namespace holding the same 200 000 edges as four weight classes
// of budget 50 000 (a weighted shard cuts in full every time). The weight
// table must name every element the run will send, so it spans the warm-up
// epoch and weightedBenchEpochs−1 more, and an engine is retired once the
// timed iterations have used those up.
func BenchmarkWeightedRefresh(b *testing.B) {
	const weightedBenchEpochs = 3
	table := make([]float64, weightedBenchEpochs*refreshBenchElems)
	for e := range table {
		table[e] = float64(int(1) << (e % 4)) // classes 0..3, interleaved
	}
	cfg := refreshBenchConfig()
	cfg.EdgeBudget = 50_000
	cfg.Weights = &WeightConfig{Table: table}
	perEngine := ((weightedBenchEpochs-1)*len(refreshBenchBase()) - 170_000) / 170_000
	benchRefreshBetweenEdges(b, cfg, false, perEngine)
}
