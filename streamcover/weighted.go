package streamcover

import (
	"repro/internal/server"
	"repro/internal/weighted"
)

// Weights is a serializable element-weight assignment for weighted
// coverage services: weight(e) = Table[e] for e < len(Table), Default
// otherwise (the zero Default ignores such elements). Weights are
// instance configuration — fixed when a service or namespace is created,
// which keeps its own copy of the table — so every shard, snapshot and
// restart of a weighted service resolves the same weight for the same
// element. All weights must be finite and non-negative; zero-weight
// elements never contribute coverage and are skipped by the sketches.
// The method value w.WeightOf is the oracle MaxWeightedCoverage takes.
type Weights = server.WeightConfig

// WeightedResult reports a MaxWeightedCoverage run.
type WeightedResult struct {
	// Sets is the chosen solution, at most k set ids.
	Sets []int
	// EstimatedCoverage estimates the total weight the solution covers.
	EstimatedCoverage float64
	// WeightClasses is the number of geometric weight classes sketched;
	// space is WeightClasses × one sketch.
	WeightClasses int
	// EdgesStored is the total edges across the class sketches.
	EdgesStored int
}

// MaxWeightedCoverage solves weighted k-cover over a single pass of the
// edge stream: pick at most k sets maximizing the total weight of the
// covered elements. weightOf supplies each element's non-negative weight
// (instance metadata, like the ids themselves); zero-weight elements are
// ignored.
//
// Extension beyond the paper (see DESIGN.md): elements are bucketed into
// geometric weight classes, one H≤n sketch per class, so each class is a
// uniform subsample with the Lemma 2.2 guarantee; a weighted lazy greedy
// (1−1/e for weighted coverage) runs on the scaled union. Space is
// O~(n · log(w_max/w_min)).
func MaxWeightedCoverage(st Stream, numSets, k int, weightOf func(elem uint32) float64, opt Options) (*WeightedResult, error) {
	res, err := weighted.KCover(st, numSets, k, weightOf, weighted.Options(opt))
	if err != nil {
		return nil, err
	}
	return &WeightedResult{
		Sets:              res.Sets,
		EstimatedCoverage: res.EstimatedCoverage,
		WeightClasses:     res.Classes,
		EdgesStored:       res.EdgesStored,
	}, nil
}

// WeightedCoverage evaluates the exact weighted coverage of sets on the
// instance under the given weights (len(weights) must equal NumElems).
func (i *Instance) WeightedCoverage(sets []int, weights []float64) (float64, error) {
	in := weighted.Instance{G: i.g, W: weights}
	if err := in.Validate(); err != nil {
		return 0, err
	}
	return in.Coverage(sets), nil
}

// GreedyMaxWeightedCoverage runs the offline weighted greedy (1−1/e) on
// the full instance — the unbounded-memory reference for weighted runs.
func (i *Instance) GreedyMaxWeightedCoverage(k int, weights []float64) (sets []int, covered float64, err error) {
	in := weighted.Instance{G: i.g, W: weights}
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	res := weighted.MaxCover(in, k)
	return res.Sets, res.Covered, nil
}
