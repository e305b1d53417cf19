package tables

// This file implements the query-throughput experiment: the query-plane
// counterpart of ingest.go. The paper's point is that the H≤n sketch is
// tiny, so queries against it should be near-free; this experiment
// measures how close the service gets on the dense-degree workload —
// greedy kcover per query under four modes (stamp-scan baseline, bitset
// popcount marginals, the engine with and without the memoized result
// cache), and the snapshot refresh cost (sequential vs parallel shard
// merge, dirty vs idle engine refresh).
// `covbench -run query-throughput -json` produces the BENCH_query.json
// trajectory line.

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/greedy"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/workload"
)

// queryBenchK is the kcover solution size every query mode solves for.
const queryBenchK = 10

// timeQueries runs fn count times and returns the elapsed wall time.
func timeQueries(count int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < count; i++ {
		fn()
	}
	return time.Since(start)
}

// bestOf runs measure trials times and keeps the minimum duration.
func bestOf(trials int, measure func() time.Duration) time.Duration {
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		if d := measure(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// RunQueryThroughput measures the query plane end to end on the
// dense-degree workload: queries/sec for kcover under each engine mode,
// and µs/refresh for the snapshot pipeline.
func RunQueryThroughput(cfg Config) []*stats.Table {
	n := cfg.pick(200, 60)
	m := cfg.pick(20000, 4000)
	shards := cfg.pick(8, 4)
	queries := cfg.pick(200, 40)
	merges := cfg.pick(5, 2)
	inst := workload.LargeSets(n, m, 0.3, cfg.seed())
	edges := stream.Drain(stream.Shuffled(inst.G, cfg.seed()+1))

	mkEngine := func(cache int) *server.Engine {
		e, err := server.New(server.Config{
			NumSets: n, NumElems: m, K: queryBenchK,
			Eps: 0.3, Seed: cfg.seed(), EdgeBudget: 200 * n,
			Shards: shards, QueryCache: cache,
		})
		if err != nil {
			panic("tables: query experiment engine: " + err.Error())
		}
		for lo := 0; lo < len(edges); lo += 4096 {
			hi := lo + 4096
			if hi > len(edges) {
				hi = len(edges)
			}
			if _, err := e.Ingest(edges[lo:hi]); err != nil {
				panic("tables: query experiment ingest: " + err.Error())
			}
		}
		if _, err := e.Refresh(); err != nil {
			panic("tables: query experiment refresh: " + err.Error())
		}
		return e
	}

	cached := mkEngine(0) // default cache
	defer cached.Close()
	uncached := mkEngine(-1)
	defer uncached.Close()

	snap, err := cached.Snapshot()
	if err != nil {
		panic("tables: query experiment snapshot: " + err.Error())
	}
	g := snap.Graph()
	contK := func(picked, covered, gain int) bool {
		return picked < queryBenchK && gain > 0
	}

	// Every mode must return the same solution; pin it while measuring.
	ref := greedy.BudgetedWith(g, bipartite.NewCoverer(g), contK)
	check := func(res greedy.Result) {
		if res.Covered != ref.Covered || len(res.Sets) != len(ref.Sets) {
			panic("tables: query modes disagree on the kcover solution")
		}
	}

	st := snap.State().Stats()
	qt := &stats.Table{
		Title: fmt.Sprintf("query throughput — kcover k=%d on %s snapshot (%d elements, %d kept edges)",
			queryBenchK, inst.Name, st.ElementsKept, st.EdgesKept),
		Cols: []string{"mode", "us/query", "queries/sec", "speedup"},
		Notes: []string{
			"dense-degree workload; every mode returns the identical greedy solution",
			fmt.Sprintf("best of %d trials of %d queries each; speedup is vs the stamp-scan row", cfg.trials(), queries),
		},
	}
	type queryMode struct {
		name string
		run  func()
	}
	modes := []queryMode{
		{"stamp greedy (pre-refactor baseline)", func() {
			check(greedy.BudgetedWith(g, bipartite.NewCoverer(g), contK))
		}},
		{"bitset greedy", func() {
			check(greedy.BudgetedWith(g, bipartite.NewBitsetCoverer(g), contK))
		}},
		{"engine query (bitset, no cache)", func() {
			if _, err := uncached.Query(server.Query{Algo: server.AlgoKCover, K: queryBenchK}); err != nil {
				panic(err)
			}
		}},
		{"engine query (bitset + cache)", func() {
			if _, err := cached.Query(server.Query{Algo: server.AlgoKCover, K: queryBenchK}); err != nil {
				panic(err)
			}
		}},
	}
	baseline := 0.0
	for _, mode := range modes {
		best := bestOf(cfg.trials(), func() time.Duration { return timeQueries(queries, mode.run) })
		perQuery := best.Seconds() / float64(queries)
		qps := 1 / perQuery
		if baseline == 0 {
			baseline = qps
		}
		qt.AddRow(mode.name, perQuery*1e6, qps, ratio(qps, baseline))
	}

	// Snapshot merge: sequential left fold vs core.MergeAll (freeze,
	// k-way view merge, thaw), over the same per-shard sketches the engine
	// would freeze.
	params := algorithms.KCoverParams(n, queryBenchK, algorithms.Options{
		Eps: 0.3, Seed: cfg.seed(), NumElems: m, EdgeBudget: 200 * n,
	})
	workers, err := distributed.NewSketches(params, shards)
	if err != nil {
		panic("tables: query experiment shards: " + err.Error())
	}
	part := distributed.NewPartitioner(shards, cfg.seed()+0x5eed)
	buckets := make([][]bipartite.Edge, shards)
	for _, e := range edges {
		w := part.Route(e)
		buckets[w] = append(buckets[w], e)
	}
	for i, sk := range workers {
		sk.AddEdges(buckets[i])
	}
	seqMerge := func() time.Duration {
		start := time.Now()
		out := core.MustNewSketch(params)
		for _, sk := range workers {
			if err := out.Merge(sk); err != nil {
				panic(err)
			}
		}
		return time.Since(start)
	}
	parMerge := func() time.Duration {
		start := time.Now()
		if _, err := core.MergeAll(params, workers...); err != nil {
			panic(err)
		}
		return time.Since(start)
	}

	mt := &stats.Table{
		Title: fmt.Sprintf("snapshot refresh — %d shards, %d edges", shards, len(edges)),
		// µs, not ms: the idle short-circuit is tens of nanoseconds and
		// must survive rounding in the recorded trajectory.
		Cols: []string{"mode", "us", "speedup"},
		Notes: []string{
			fmt.Sprintf("merge rows fold %d shard sketches; engine rows include freeze, merge, graph + cover index build", shards),
			fmt.Sprintf("best of %d trials (%d merges per trial); speedup is vs the sequential row", cfg.trials(), merges),
		},
	}
	seqBest := bestOf(cfg.trials(), func() time.Duration {
		best := time.Duration(0)
		for i := 0; i < merges; i++ {
			if d := seqMerge(); best == 0 || d < best {
				best = d
			}
		}
		return best
	})
	parBest := bestOf(cfg.trials(), func() time.Duration {
		best := time.Duration(0)
		for i := 0; i < merges; i++ {
			if d := parMerge(); best == 0 || d < best {
				best = d
			}
		}
		return best
	})
	mt.AddRow("sequential pairwise merge (pre-refactor baseline)",
		seqBest.Seconds()*1e6, 1.0)
	mt.AddRow(fmt.Sprintf("core.MergeAll (freeze + view merge + thaw, %d shards)", shards),
		parBest.Seconds()*1e6, ratio(seqBest.Seconds(), parBest.Seconds()))

	// Engine refresh: dirty (one new edge re-arms the merge) vs the idle
	// short-circuit.
	dirty := bestOf(cfg.trials(), func() time.Duration {
		if _, err := cached.Ingest(edges[:1]); err != nil {
			panic(err)
		}
		start := time.Now()
		if _, err := cached.Refresh(); err != nil {
			panic(err)
		}
		return time.Since(start)
	})
	idle := bestOf(cfg.trials(), func() time.Duration {
		return timeQueries(queries, func() {
			if _, err := cached.Refresh(); err != nil {
				panic(err)
			}
		}) / time.Duration(queries)
	})
	mt.AddRow("engine refresh (dirty)", dirty.Seconds()*1e6,
		ratio(seqBest.Seconds(), dirty.Seconds()))
	mt.AddRow("engine refresh (idle short-circuit)", idle.Seconds()*1e6,
		ratio(seqBest.Seconds(), idle.Seconds()))

	return []*stats.Table{qt, mt}
}
