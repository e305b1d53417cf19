package tables

// This file implements the dynamic-engine experiment: the insert/delete
// L0-sampler engine (DESIGN.md §14) under increasing delete fractions,
// with the append-only sketch engine as the insert-only baseline. Every
// dynamic row inserts the whole shuffled stream and then retracts its
// first ⌈frac·edges⌉ ops — the same deterministic prefix covcli
// -delete-frac uses — so "true coverage" is computed on the net
// (suffix) graph the sampler must recover. The frac=1 row pins the
// insert-all-delete-all property end to end: zero recovered edges, an
// empty solution, estimate 0. `covbench -run dynamic-throughput -json`
// produces the BENCH_dynamic.json trajectory line.

import (
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/greedy"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/workload"
)

// dynTimings is one trial's measurements for one table row.
type dynTimings struct {
	ingest    time.Duration // IngestOps of inserts + deletes, then merge
	query     time.Duration // kcover on the materialized snapshot
	recovered int           // edges the merged snapshot state holds
	estimate  float64
	truth     float64 // exact coverage of the answer on the net graph
}

// runDynamicTrial feeds one row's op stream (inserts for every edge,
// then deletes of the first delCount) to an engine, merges, queries
// kcover and grades the answer against the net graph.
func runDynamicTrial(cfg server.Config, netG *bipartite.Graph, ops []bipartite.Op, k int) dynTimings {
	eng, err := server.New(cfg)
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	var tm dynTimings
	start := time.Now()
	if _, err := eng.IngestOps(ops); err != nil {
		panic(err)
	}
	if _, err := eng.Refresh(); err != nil {
		panic(err)
	}
	tm.ingest = time.Since(start)

	start = time.Now()
	res, err := eng.Query(server.Query{Algo: server.AlgoKCover, K: k})
	if err != nil {
		panic(err)
	}
	tm.query = time.Since(start)
	tm.estimate = res.EstimatedCoverage
	tm.truth = float64(netG.Coverage(res.Sets))

	st, err := eng.Stats()
	if err != nil {
		panic(err)
	}
	tm.recovered = st.SnapshotKept
	return tm
}

// RunDynamicThroughput benchmarks the dynamic engine across delete
// fractions: op throughput (inserts and deletes through the sharded
// ApplyOps path), the sampler's recovered-edge footprint, query latency
// and solution quality on the net stream — plus the sketch engine as
// the insert-only baseline the op plane must not regress.
func RunDynamicThroughput(cfg Config) []*stats.Table {
	n := cfg.pick(200, 60)
	m := cfg.pick(20000, 4000)
	k := 10
	inst := workload.Zipf(n, m, m/8, 0.9, 0.7, cfg.seed())
	edges := stream.Drain(stream.Shuffled(inst.G, cfg.seed()+1))
	base := server.Config{
		NumSets: n, NumElems: m, K: k, Eps: 0.3,
		Seed: cfg.seed(), EdgeBudget: 40 * n, Shards: 2,
	}
	dynCfg := base
	dynCfg.Engine = server.ModeDynamic

	fracs := []float64{0, 0.25, 0.5, 1}
	tbl := &stats.Table{
		Title: fmt.Sprintf("dynamic engine — %s, %d edges, k=%d, sampler %d cells × %d levels",
			inst.Name, len(edges), k,
			dynCfg.DynamicParams().Cells, dynCfg.DynamicParams().Levels),
		Cols: []string{"mode", "ops", "net edges", "ingest ms", "ops/sec",
			"query ms", "recovered", "est coverage", "true coverage", "ratio vs greedy"},
		Notes: []string{
			"every dynamic row inserts the whole shuffled stream, then deletes its first ⌈frac·edges⌉ again",
			"true coverage and the greedy reference are computed on the net (suffix) graph each row leaves behind",
			fmt.Sprintf("sketch row is the append-only insert baseline; best of %d trials per row", cfg.trials()),
			"the frac=1 row must recover zero edges and answer an empty solution (insert-all-delete-all)",
		},
	}

	// Insert-only sketch baseline through the same harness and op plane.
	inserts := bipartite.Inserts(edges)
	var sketchBest dynTimings
	for trial := 0; trial < cfg.trials(); trial++ {
		tm := runDynamicTrial(base, inst.G, inserts, k)
		if sketchBest.ingest == 0 || tm.ingest+tm.query < sketchBest.ingest+sketchBest.query {
			sketchBest = tm
		}
	}
	offlineFull := greedy.MaxCover(inst.G, k)
	tbl.AddRow("sketch (insert only)",
		len(edges), len(edges),
		float64(sketchBest.ingest.Milliseconds()),
		float64(len(edges))/sketchBest.ingest.Seconds(),
		float64(sketchBest.query.Microseconds())/1000.0,
		sketchBest.recovered, sketchBest.estimate, sketchBest.truth,
		ratio(sketchBest.truth, float64(offlineFull.Covered)))

	for _, frac := range fracs {
		delCount := int(frac * float64(len(edges)))
		ops := append(bipartite.Inserts(edges), bipartite.Deletes(edges[:delCount])...)
		netG := bipartite.MustFromEdges(n, m, append([]bipartite.Edge(nil), edges[delCount:]...))
		offline := greedy.MaxCover(netG, k)

		var best dynTimings
		for trial := 0; trial < cfg.trials(); trial++ {
			tm := runDynamicTrial(dynCfg, netG, ops, k)
			if best.ingest == 0 || tm.ingest+tm.query < best.ingest+best.query {
				best = tm
			}
		}
		tbl.AddRow(fmt.Sprintf("dynamic frac=%.2f", frac),
			len(ops), len(edges)-delCount,
			float64(best.ingest.Milliseconds()),
			float64(len(ops))/best.ingest.Seconds(),
			float64(best.query.Microseconds())/1000.0,
			best.recovered, best.estimate, best.truth,
			ratio(best.truth, float64(offline.Covered)))
	}
	return []*stats.Table{tbl}
}
