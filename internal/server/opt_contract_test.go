package server

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/exact"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestModesMeetKCoverBoundAgainstOPT holds every engine mode to the
// contract DESIGN.md §11 states for it: the true coverage of the
// service's kcover answer is at least (1−1/e−ε)·OPT_k, with OPT_k from
// the exact branch-and-bound solver — not greedy against greedy. The
// edge budget is set far below the instance size, so every mode answers
// from a genuine subsample. The dynamic mode is graded twice: insert
// only, and with a second instance's edges inserted and deleted again
// around the stream, which leaves the same net set.
func TestModesMeetKCoverBoundAgainstOPT(t *testing.T) {
	const (
		n, m = 40, 3000
		eps  = 0.2
	)
	bound := 1 - 1/math.E - eps
	instances := []struct {
		inst workload.Instance
		k    int
	}{
		{workload.PlantedKCover(n, m, 5, 0.7, 150, 5), 5},
		{workload.Zipf(n, m, 600, 0.9, 0.7, 5), 4},
	}
	modes := []struct {
		name    string
		engine  ModeName
		weights *WeightConfig
		churn   bool
	}{
		{name: "sketch"},
		{name: "weighted", weights: &WeightConfig{Default: 1}},
		{name: "dynamic", engine: ModeDynamic},
		{name: "dynamic-churn", engine: ModeDynamic, churn: true},
	}
	noise := stream.Drain(stream.Shuffled(workload.Uniform(n, m, 0.02, 11).G, 12))

	for _, in := range instances {
		g, k := in.inst.G, in.k
		opt := exact.MaxCover(g, k).Covered
		edges := stream.Drain(stream.Shuffled(g, 7))
		for _, shards := range []int{1, 3} {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", in.inst.Name, shards, mode.name), func(t *testing.T) {
					cfg := Config{
						NumSets: n, NumElems: m, K: k, Eps: eps, Seed: 9,
						EdgeBudget: 12 * n, Shards: shards,
						Engine: mode.engine, Weights: mode.weights,
					}
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()

					ops := bipartite.Inserts(edges)
					if mode.churn {
						ops = append(append(bipartite.Inserts(noise), ops...), bipartite.Deletes(noise)...)
					}
					for i := 0; i < len(ops); i += 257 {
						if _, err := e.IngestOps(ops[i:min(i+257, len(ops))]); err != nil {
							t.Fatal(err)
						}
					}

					res, err := e.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
					if err != nil {
						t.Fatal(err)
					}
					st, err := e.Stats()
					if err != nil {
						t.Fatal(err)
					}
					if st.SnapshotKept >= g.NumEdges() {
						t.Fatalf("snapshot holds %d of %d edges: the budget does not bind, the test grades plain greedy",
							st.SnapshotKept, g.NumEdges())
					}
					got := g.Coverage(res.Sets)
					if len(res.Sets) > k || float64(got) < bound*float64(opt) {
						t.Fatalf("answer %v covers %d, OPT_%d = %d: ratio %.3f below the stated 1−1/e−ε = %.3f",
							res.Sets, got, k, opt, float64(got)/float64(opt), bound)
					}
					t.Logf("kept %d/%d edges, coverage %d/%d = %.3f",
						st.SnapshotKept, g.NumEdges(), got, opt, float64(got)/float64(opt))
				})
			}
		}
	}
}
