// Package stream provides the edge-arrival streaming substrate: streams of
// (set, element) membership edges in arbitrary order, resettable streams
// for multi-pass algorithms, a drain that feeds a stream to the batched
// ingest paths, and a set-arrival adapter for the prior-work baselines
// that require whole sets (the model this paper improves on).
package stream

import (
	"repro/internal/bipartite"
	"repro/internal/hashing"
)

// Stream yields edges one at a time, in the order chosen by the producer.
// Next returns ok=false after the final edge.
type Stream interface {
	Next() (e bipartite.Edge, ok bool)
}

// Resettable is a stream that can be replayed from the beginning; required
// by the multi-pass set-cover algorithm (Algorithm 6). Implementations
// must yield the same edge multiset on every pass (the order may differ
// between passes, matching the adversarial model).
type Resettable interface {
	Stream
	Reset()
}

// Sized is implemented by streams whose total edge count is known.
type Sized interface {
	Len() int
}

// Slice is a Resettable stream over a fixed edge slice.
type Slice struct {
	edges []bipartite.Edge
	pos   int
}

// NewSlice returns a stream over edges; the slice is not copied.
func NewSlice(edges []bipartite.Edge) *Slice {
	return &Slice{edges: edges}
}

// Next implements Stream.
func (s *Slice) Next() (bipartite.Edge, bool) {
	if s.pos >= len(s.edges) {
		return bipartite.Edge{}, false
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true
}

// Reset implements Resettable.
func (s *Slice) Reset() { s.pos = 0 }

// Len implements Sized.
func (s *Slice) Len() int { return len(s.edges) }

// Shuffled materializes the edges of g in a pseudo-random order determined
// by seed and returns a Resettable stream over them. This is the standard
// way experiments present a graph in the edge-arrival model.
func Shuffled(g *bipartite.Graph, seed uint64) *Slice {
	edges := g.Edges(nil)
	rng := hashing.NewRNG(seed)
	rng.Shuffle(len(edges), func(i, j int) {
		edges[i], edges[j] = edges[j], edges[i]
	})
	return NewSlice(edges)
}

// BySet returns a Resettable stream that emits the edges of g grouped by
// set, with the set order permuted by seed. This realizes the set-arrival
// order as a special case of edge arrival.
func BySet(g *bipartite.Graph, seed uint64) *Slice {
	rng := hashing.NewRNG(seed)
	order := rng.Perm(g.NumSets())
	edges := make([]bipartite.Edge, 0, g.NumEdges())
	for _, s := range order {
		for _, e := range g.Set(s) {
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: e})
		}
	}
	return NewSlice(edges)
}

// Adversarial returns a Resettable stream ordered to stress sampling
// algorithms: edges are sorted so that all edges of high-degree elements
// arrive first, which maximizes churn in bounded-memory sketches.
func Adversarial(g *bipartite.Graph) *Slice {
	type ed struct {
		deg int
		e   bipartite.Edge
	}
	tmp := make([]ed, 0, g.NumEdges())
	for s := 0; s < g.NumSets(); s++ {
		for _, e := range g.Set(s) {
			tmp = append(tmp, ed{deg: g.ElemDegree(int(e)), e: bipartite.Edge{Set: uint32(s), Elem: e}})
		}
	}
	// Simple stable ordering: descending element degree, then element id,
	// then set id. Insertion into buckets by degree keeps it O(E + maxDeg).
	maxDeg := 0
	for _, t := range tmp {
		if t.deg > maxDeg {
			maxDeg = t.deg
		}
	}
	buckets := make([][]bipartite.Edge, maxDeg+1)
	for _, t := range tmp {
		buckets[t.deg] = append(buckets[t.deg], t.e)
	}
	edges := make([]bipartite.Edge, 0, len(tmp))
	for d := maxDeg; d >= 0; d-- {
		edges = append(edges, buckets[d]...)
	}
	return NewSlice(edges)
}

// Batches drains st into one reused buffer of size edges and hands each
// non-empty batch to fn, in stream order, until the stream ends or fn
// fails. The buffer is refilled once fn returns, so fn must not retain
// the batch. Batches returns the number of edges in the batches fn
// accepted, and fn's first error. It is the one drain behind every
// stream-taking ingest call (sketches, weight-class banks, services and
// wire connections), each of which keeps its own batch size.
func Batches(st Stream, size int, fn func([]bipartite.Edge) error) (int64, error) {
	buf := make([]bipartite.Edge, 0, size)
	var n int64
	for {
		e, ok := st.Next()
		if ok {
			buf = append(buf, e)
			if len(buf) < size {
				continue
			}
		}
		if len(buf) > 0 {
			if err := fn(buf); err != nil {
				return n, err
			}
			n += int64(len(buf))
			buf = buf[:0]
		}
		if !ok {
			return n, nil
		}
	}
}

// Func adapts a closure to the Stream interface.
type Func func() (bipartite.Edge, bool)

// Next implements Stream.
func (f Func) Next() (bipartite.Edge, bool) { return f() }

// Drain consumes the stream and returns all edges; test helper.
func Drain(s Stream) []bipartite.Edge {
	var out []bipartite.Edge
	for {
		e, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}
