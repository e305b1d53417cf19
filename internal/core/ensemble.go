package core

import (
	"sort"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Ensemble maintains R independent H≤n sketches (distinct derived seeds)
// over the same stream, as in §1.3.2: "all the algorithms presented here
// construct O~(1) independent instances of the sketch". Medians across
// replicas boost the per-query success probability from constant to
// 1 − exp(−Ω(R)), and solving on every replica and keeping the best
// median-estimated solution hedges against an unlucky hash draw.
type Ensemble struct {
	sketches []*Sketch
}

// NewEnsemble returns an ensemble of `replicas` sketches whose seeds are
// derived from params.Seed; replicas < 1 is treated as 1.
func NewEnsemble(params Params, replicas int) (*Ensemble, error) {
	if replicas < 1 {
		replicas = 1
	}
	e := &Ensemble{sketches: make([]*Sketch, replicas)}
	for i := range e.sketches {
		p := params
		p.Seed = hashing.Mix2(params.Seed, uint64(i)+1)
		sk, err := NewSketch(p)
		if err != nil {
			return nil, err
		}
		e.sketches[i] = sk
	}
	return e, nil
}

// Replicas returns the number of member sketches.
func (e *Ensemble) Replicas() int { return len(e.sketches) }

// Sketch returns the i-th member (for diagnostics).
func (e *Ensemble) Sketch(i int) *Sketch { return e.sketches[i] }

// AddEdge feeds one edge to every replica.
func (e *Ensemble) AddEdge(edge bipartite.Edge) {
	for _, sk := range e.sketches {
		sk.AddEdge(edge)
	}
}

// AddEdges feeds a batch of edges to every replica through the batched
// ingest path.
func (e *Ensemble) AddEdges(edges []bipartite.Edge) {
	for _, sk := range e.sketches {
		sk.AddEdges(edges)
	}
}

// AddStream drains st into every replica (batched) and returns the edge
// count.
func (e *Ensemble) AddStream(st stream.Stream) int {
	return addStream(st, e.AddEdges)
}

// EstimateCoverage returns the median of the replicas' coverage
// estimates for the family — the standard estimator-boosting trick.
func (e *Ensemble) EstimateCoverage(sets []int) float64 {
	ests := make([]float64, len(e.sketches))
	for i, sk := range e.sketches {
		ests[i] = sk.EstimateCoverage(sets)
	}
	sort.Float64s(ests)
	n := len(ests)
	if n%2 == 1 {
		return ests[n/2]
	}
	return (ests[n/2-1] + ests[n/2]) / 2
}

// Edges returns the total edges stored across replicas (the ensemble's
// space: R times a single sketch).
func (e *Ensemble) Edges() int {
	total := 0
	for _, sk := range e.sketches {
		total += sk.Edges()
	}
	return total
}

// BestSolution runs the provided solver on every replica's compact
// instance and returns the solution with the highest median-estimated
// coverage. solver receives the replica's graph and must return set ids.
func (e *Ensemble) BestSolution(solver func(g *bipartite.Graph) []int) (sets []int, estimate float64) {
	best := []int(nil)
	bestEst := -1.0
	for _, sk := range e.sketches {
		g, _ := sk.Graph()
		sol := solver(g)
		if est := e.EstimateCoverage(sol); est > bestEst {
			bestEst = est
			best = sol
		}
	}
	return best, bestEst
}
