package streamcover

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/distributed"
)

// Shards partitions the instance's edges into `workers` disjoint streams
// by a seeded hash — the random partition a distributed file system
// provides. Feed them to MaxCoverageSharded.
func (i *Instance) Shards(workers int, seed uint64) []Stream {
	return distributed.ShardGraph(i.g, workers, seed)
}

// ShardedResult reports a distributed MaxCoverage round.
type ShardedResult struct {
	// Sets is the solution; identical to the single-machine solution for
	// the same Options, because the merged sketch equals the
	// single-machine sketch.
	Sets []int
	// EstimatedCoverage is the merged sketch's coverage estimate.
	EstimatedCoverage float64
	// EdgesShipped is the total communication: the sum of worker sketch
	// sizes sent to the coordinator.
	EdgesShipped int
	// WorkerEdges lists each worker's shipped sketch size.
	WorkerEdges []int
}

// MaxCoverageSharded solves k-cover in one distributed round: each shard
// is sketched independently (in parallel), the sketches are merged, and
// greedy runs on the merged sketch. The guarantee matches MaxCoverage
// (Theorem 3.1) because the H≤n sketch is composable: the merge of shard
// sketches is exactly the sketch of the whole input.
func MaxCoverageSharded(shards []Stream, numSets, k int, opt Options) (*ShardedResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("streamcover: no shards")
	}
	if numSets <= 0 || k <= 0 {
		return nil, fmt.Errorf("streamcover: MaxCoverageSharded needs positive numSets and k")
	}
	params := algorithms.KCoverParams(numSets, k, opt.internal())
	res, err := distributed.KCover(shards, params, k)
	if err != nil {
		return nil, err
	}
	out := &ShardedResult{
		Sets:              res.Sets,
		EstimatedCoverage: res.EstimatedCoverage,
		WorkerEdges:       res.Stats.WorkerEdgesKept,
	}
	for _, w := range res.Stats.WorkerEdgesKept {
		out.EdgesShipped += w
	}
	return out, nil
}
