// Package distributed simulates the paper's companion distributed
// setting (§1.3.2, conclusion, and reference [10]): the H≤n sketch is a
// composable summary, so a cluster of workers can each sketch a shard of
// the edge set independently, ship the O~(n)-sized sketches to a
// coordinator, and the merged sketch is exactly the sketch of the whole
// input (see internal/core/merge.go for the argument). One merge round —
// a single MapReduce round — therefore suffices for k-cover and the
// set-cover variants.
//
// Workers run as goroutines here; the communication cost of the real
// system corresponds to the per-worker sketch sizes reported in Stats.
package distributed

import (
	"fmt"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Stats accounts a distributed run.
type Stats struct {
	// Workers is the number of shards processed.
	Workers int
	// WorkerEdgesSeen[i] is the number of stream edges worker i consumed.
	WorkerEdgesSeen []int64
	// WorkerEdgesKept[i] is the sketch size worker i shipped — the
	// per-worker communication cost.
	WorkerEdgesKept []int
	// MergedEdges is the coordinator's final sketch size.
	MergedEdges int
	// MergedElements is the coordinator's final sampled-element count.
	MergedElements int
}

// NewSketches allocates n worker sketches with identical parameters —
// the precondition for mergeability. Both the one-shot simulation below
// and the long-running serving engine (internal/server) build their
// shard sketches through this function so they share one kept-edge
// policy.
func NewSketches(params core.Params, n int) ([]*core.Sketch, error) {
	if n < 1 {
		return nil, fmt.Errorf("distributed: need at least one sketch, got %d", n)
	}
	sketches := make([]*core.Sketch, n)
	for i := range sketches {
		sk, err := core.NewSketch(params)
		if err != nil {
			return nil, err
		}
		sketches[i] = sk
	}
	return sketches, nil
}

// BuildSketches runs one worker goroutine per shard, each building an
// H≤n sketch with identical parameters, and returns the local sketches.
// Workers drain their shard through the batched ingest path
// (core.Sketch.AddStream feeds AddEdges internally), so per-edge
// overheads — hashing above-bar elements past the index, per-edge budget
// enforcement — are amortized across each batch.
func BuildSketches(shards []stream.Stream, params core.Params) ([]*core.Sketch, *Stats, error) {
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("distributed: no shards")
	}
	sketches, err := NewSketches(params, len(shards))
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(sk *core.Sketch, sh stream.Stream) {
			defer wg.Done()
			sk.AddStream(sh)
		}(sketches[i], sh)
	}
	wg.Wait()

	st := &Stats{Workers: len(shards)}
	for _, sk := range sketches {
		s := sk.Stats()
		st.WorkerEdgesSeen = append(st.WorkerEdgesSeen, s.EdgesSeen)
		st.WorkerEdgesKept = append(st.WorkerEdgesKept, s.EdgesKept)
	}
	return sketches, st, nil
}

// Result is a distributed k-cover outcome.
type Result struct {
	Sets              []int
	SketchCoverage    int
	EstimatedCoverage float64
	Stats             *Stats
}

// KCover solves k-cover over sharded edge streams in one round: workers
// sketch in parallel, the coordinator folds their canonical views
// (core.MergeViews) and runs greedy on the merged view. Guarantees
// match the single-machine Algorithm 3 because the merged sketch equals
// the single-machine sketch.
func KCover(shards []stream.Stream, params core.Params, k int) (*Result, error) {
	sketches, st, err := BuildSketches(shards, params)
	if err != nil {
		return nil, err
	}
	// What a worker ships is its canonical view; each freezes its own.
	views := make([]*core.View, len(sketches))
	var wg sync.WaitGroup
	for i, sk := range sketches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = sk.Freeze()
		}()
	}
	wg.Wait()
	merged, err := core.MergeViews(params, 0, views...)
	if err != nil {
		return nil, err
	}
	ms := merged.Stats()
	st.MergedEdges, st.MergedElements = ms.EdgesKept, ms.ElementsKept
	g, _, err := merged.Graph()
	if err != nil {
		return nil, err
	}
	res := greedy.MaxCover(g, k)
	return &Result{
		Sets:              res.Sets,
		SketchCoverage:    res.Covered,
		EstimatedCoverage: float64(res.Covered) / ms.PStar,
		Stats:             st,
	}, nil
}

// Partitioner routes edges to workers by a seeded hash of the whole edge:
// the random edge partition a distributed file system would hand the
// workers. It is the edge splitter of ShardGraph, and so of the paper's
// dist-merge experiment and streamcover.Instance.Shards, and of two rows of
// the benchmark's ladder; it has no product caller: the serving engine routes every record by its element's
// sketch priority (core.Priority), so that a shard owns all of an
// element's edges. Any assignment of edges to workers yields a correct
// merge; hashing merely balances the shards. The zero Partitioner is not
// valid; use NewPartitioner.
type Partitioner struct {
	workers int
	h       hashing.Hasher
}

// NewPartitioner returns a partitioner over `workers` shards (at least 1).
func NewPartitioner(workers int, seed uint64) Partitioner {
	if workers < 1 {
		workers = 1
	}
	return Partitioner{workers: workers, h: hashing.NewHasher(seed)}
}

// Workers returns the number of shards routed to.
func (p Partitioner) Workers() int { return p.workers }

// Route returns the worker index of e, in [0, Workers()).
func (p Partitioner) Route(e bipartite.Edge) int {
	return int(p.h.Hash(e.Set^e.Elem*0x9e3779b9) % uint64(p.workers))
}

// Split partitions edges into per-worker buckets.
func (p Partitioner) Split(edges []bipartite.Edge) [][]bipartite.Edge {
	buckets := make([][]bipartite.Edge, p.workers)
	for _, e := range edges {
		w := p.Route(e)
		buckets[w] = append(buckets[w], e)
	}
	return buckets
}

// ShardGraph splits the edges of g into `workers` shards by a seeded
// hash of the edge, returning one replayable stream per shard.
func ShardGraph(g *bipartite.Graph, workers int, seed uint64) []stream.Stream {
	p := NewPartitioner(workers, seed)
	buckets := make([][]bipartite.Edge, p.Workers())
	for s := 0; s < g.NumSets(); s++ {
		for _, e := range g.Set(s) {
			edge := bipartite.Edge{Set: uint32(s), Elem: e}
			w := p.Route(edge)
			buckets[w] = append(buckets[w], edge)
		}
	}
	out := make([]stream.Stream, len(buckets))
	for i, b := range buckets {
		out[i] = stream.NewSlice(b)
	}
	return out
}
