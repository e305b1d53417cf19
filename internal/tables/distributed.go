package tables

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/distributed"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/workload"
)

// RunDistMerge demonstrates the composability behind the paper's
// companion distributed results (§1.3.2): the H≤n sketch of a stream
// equals the merge of sketches of its shards, so one parallel round
// reproduces the single-machine solution exactly, with communication
// bounded by per-worker sketch sizes rather than shard sizes.
func RunDistMerge(cfg Config) []*stats.Table {
	n := cfg.pick(400, 80)
	m := cfg.pick(50000, 4000)
	k := cfg.pick(15, 5)
	seed := cfg.trialSeed(1300, 0)
	inst := workload.Zipf(n, m, m/8, 0.9, 0.8, seed)
	opt := algorithms.Options{Eps: 0.4, Seed: seed, NumElems: m, EdgeBudget: 50 * n}
	params := algorithms.KCoverParams(n, k, opt)

	// Single-machine reference.
	startSingle := time.Now()
	single, err := algorithms.KCover(stream.Shuffled(inst.G, 1), n, k, opt)
	if err != nil {
		panic(err)
	}
	singleElapsed := time.Since(startSingle)

	t := &stats.Table{
		Title: "Distributed merge (companion paper [10]): shard -> sketch -> merge, one round",
		Cols: []string{"workers", "same solution", "merged edges", "shipped edges",
			"max worker share", "wall time vs single"},
		Notes: []string{
			fmt.Sprintf("n=%d m=%d k=%d, %d input edges, per-sketch budget %d",
				n, m, k, inst.G.NumEdges(), params.EffectiveEdgeBudget()),
			"paper shape: merged sketch == single-machine sketch, so the solution never changes with the worker count",
		},
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		shards := distributed.ShardGraph(inst.G, w, seed+uint64(w))
		start := time.Now()
		res, err := distributed.KCover(shards, params, k)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		same := "yes"
		if len(res.Sets) != len(single.Sets) {
			same = "no"
		} else {
			for i := range res.Sets {
				if res.Sets[i] != single.Sets[i] {
					same = "no"
				}
			}
		}
		shipped, maxShare := 0, 0
		for _, kept := range res.Stats.WorkerEdgesKept {
			shipped += kept
			if kept > maxShare {
				maxShare = kept
			}
		}
		t.AddRow(w, same, res.Stats.MergedEdges, shipped, maxShare,
			fmt.Sprintf("%.2fx", float64(elapsed)/float64(max(singleElapsed, 1))))
	}
	return []*stats.Table{t}
}
