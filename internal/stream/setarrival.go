package stream

import (
	"repro/internal/bipartite"
	"repro/internal/hashing"
)

// SetStream is the set-arrival model assumed by most prior work: each call
// yields an entire set with all of its elements at once. The paper argues
// this model hides the cost of gathering a set's edges; we implement it
// only to run the prior-work baselines of Table 1.
type SetStream interface {
	// NextSet returns the next set id together with its full element
	// list. The returned slice is only valid until the following call.
	NextSet() (set uint32, elems []uint32, ok bool)
}

// ResettableSetStream is a SetStream that supports multiple passes.
type ResettableSetStream interface {
	SetStream
	ResetSets()
}

// GraphSetStream replays the sets of a graph in a seeded pseudo-random
// order.
type GraphSetStream struct {
	g     *bipartite.Graph
	order []int
	pos   int
}

// NewGraphSetStream returns a set-arrival view of g with set order
// permuted by seed.
func NewGraphSetStream(g *bipartite.Graph, seed uint64) *GraphSetStream {
	rng := hashing.NewRNG(seed)
	return &GraphSetStream{g: g, order: rng.Perm(g.NumSets())}
}

// NextSet implements SetStream.
func (s *GraphSetStream) NextSet() (uint32, []uint32, bool) {
	if s.pos >= len(s.order) {
		return 0, nil, false
	}
	set := s.order[s.pos]
	s.pos++
	return uint32(set), s.g.Set(set), true
}

// ResetSets implements ResettableSetStream.
func (s *GraphSetStream) ResetSets() { s.pos = 0 }

// NumSets returns the number of sets the stream will deliver per pass.
func (s *GraphSetStream) NumSets() int { return len(s.order) }
