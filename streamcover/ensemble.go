package streamcover

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
)

// EnsembleResult reports a MaxCoverageEnsemble run.
type EnsembleResult struct {
	// Sets is the best solution across replicas (highest median-estimated
	// coverage).
	Sets []int
	// EstimatedCoverage is the median coverage estimate of Sets across
	// replicas — more robust than any single sketch's estimate.
	EstimatedCoverage float64
	// Replicas is the number of independent sketches maintained.
	Replicas int
	// EdgesStored is the total edges across replicas (space = R sketches).
	EdgesStored int
}

// MaxCoverageEnsemble runs Algorithm 3 with R independent sketches over
// the same single pass (§1.3.2: the algorithms build O~(1) independent
// sketch instances). It returns the best replica's solution judged by the
// median estimate, boosting the success probability from 1 − 1/n to
// 1 − exp(−Ω(R)) at R times the space. For most uses MaxCoverage (R = 1)
// suffices; use this when a single run's failure probability matters.
func MaxCoverageEnsemble(st Stream, numSets, k, replicas int, opt Options) (*EnsembleResult, error) {
	if numSets <= 0 || k <= 0 {
		return nil, fmt.Errorf("streamcover: MaxCoverageEnsemble needs positive numSets and k")
	}
	params := algorithms.KCoverParams(numSets, k, opt.internal())
	ens, err := core.NewEnsemble(params, replicas)
	if err != nil {
		return nil, err
	}
	ens.AddStream(st)
	sets, est := ens.BestSolution(func(g *bipartite.Graph) []int {
		return greedy.MaxCover(g, k).Sets
	})
	return &EnsembleResult{
		Sets:              sets,
		EstimatedCoverage: est,
		Replicas:          ens.Replicas(),
		EdgesStored:       ens.Edges(),
	}, nil
}
