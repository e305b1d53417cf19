// Package streamcover is the public API of this repository: streaming
// algorithms for coverage problems (maximum k-cover, set cover, set cover
// with outliers) in the edge-arrival model, implementing
//
//	Bateni, Esfandiari, Mirrokni.
//	"Almost Optimal Streaming Algorithms for Coverage Problems." SPAA 2017.
//
// An instance is a family of n sets over m elements; it arrives as a
// stream of (set, element) membership edges in arbitrary order. The
// algorithms maintain the paper's H≤n sketch — O~(n) edges, independent
// of m and of the set sizes — and run classical offline algorithms on the
// sketch, losing only O(ε) in the approximation factor:
//
//   - MaxCoverage: single pass, (1 − 1/e − ε)-approximate k-cover.
//   - SetCoverWithOutliers: single pass, (1+ε)·ln(1/λ)-approximate cover
//     of a (1−λ) fraction of the elements.
//   - SetCover: 2r−1 passes, (1+ε)·ln(m)-approximate full set cover.
//
// All functions are deterministic given Options.Seed. See DESIGN.md for
// the mapping from the paper's theorems to this API; `covbench -run all`
// (experiment index in DESIGN.md §4) prints the measured guarantees.
package streamcover

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/greedy"
	"repro/internal/stream"
)

// newPeekReader wraps r so the instance reader can sniff the format.
func newPeekReader(r io.Reader) *bufio.Reader { return bufio.NewReader(r) }

// Edge is one (set, element) membership pair — the streaming unit of the
// edge-arrival model. Set is the set id, in [0, n); Elem is the element
// id, in [0, m). It is the engine's own edge type, so batches pass from
// this API to the shards without a copy.
type Edge = bipartite.Edge

// Stream delivers edges one at a time; Next reports ok=false after the
// last edge. Implementations may generate edges lazily (e.g. from disk).
type Stream = stream.Stream

// ResettableStream is a Stream that can be replayed from the start, as
// required by the multi-pass SetCover. Each pass must deliver the same
// edge multiset (order may vary); Reset rewinds the stream so the next
// Next call replays it from the start.
type ResettableStream = stream.Resettable

// SliceStream adapts an in-memory edge slice to ResettableStream.
type SliceStream struct {
	// Edges is the backing slice, delivered in order.
	Edges []Edge
	pos   int
}

// Next implements Stream.
func (s *SliceStream) Next() (Edge, bool) {
	if s.pos >= len(s.Edges) {
		return Edge{}, false
	}
	e := s.Edges[s.pos]
	s.pos++
	return e, true
}

// Reset implements ResettableStream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Instance is an in-memory coverage instance: n sets over m elements.
// Build one with NewInstance (explicit edges), ReadInstance (files) or
// the Generate* functions; stream one with EdgeStream.
type Instance struct {
	g *bipartite.Graph
	// Planted carries ground-truth metadata when the instance came from a
	// generator that plants a solution; nil otherwise.
	Planted *PlantedInfo
}

// PlantedInfo is generator ground truth: a distinguished solution that
// lower-bounds the optimum.
type PlantedInfo struct {
	// Sets is the planted solution.
	Sets []int
	// Coverage is C(Sets).
	Coverage int
	// CoverSize, when non-zero, upper-bounds the optimal set-cover size.
	CoverSize int
}

// NewInstance builds an instance from explicit edges. Ids must lie in
// [0, numSets) and [0, numElems); duplicate edges are coalesced.
func NewInstance(numSets, numElems int, edges []Edge) (*Instance, error) {
	g, err := bipartite.FromEdges(numSets, numElems, edges)
	if err != nil {
		return nil, err
	}
	return &Instance{g: g}, nil
}

// NewInstanceFromSets builds an instance from explicit per-set element
// lists.
func NewInstanceFromSets(numElems int, sets [][]uint32) (*Instance, error) {
	g, err := bipartite.FromSets(numElems, sets)
	if err != nil {
		return nil, err
	}
	return &Instance{g: g}, nil
}

// NumSets returns n.
func (i *Instance) NumSets() int { return i.g.NumSets() }

// NumElems returns m.
func (i *Instance) NumElems() int { return i.g.NumElems() }

// NumEdges returns the number of distinct memberships.
func (i *Instance) NumEdges() int { return i.g.NumEdges() }

// SetElems returns the sorted element ids of set s (do not modify).
func (i *Instance) SetElems(s int) []uint32 { return i.g.Set(s) }

// Coverage evaluates the coverage function C(sets) = |∪ sets| exactly.
func (i *Instance) Coverage(sets []int) int { return i.g.Coverage(sets) }

// CoveredElems returns the number of elements that belong to at least one
// set (set cover is defined over these).
func (i *Instance) CoveredElems() int { return i.g.CoveredElems() }

// EdgeStream returns a resettable edge-arrival stream of the instance in
// a pseudo-random order determined by seed.
func (i *Instance) EdgeStream(seed uint64) ResettableStream {
	return stream.Shuffled(i.g, seed)
}

// GreedyMaxCoverage runs the offline 1−1/e greedy on the full instance —
// the unbounded-memory reference point.
func (i *Instance) GreedyMaxCoverage(k int) (sets []int, covered int) {
	res := greedy.MaxCover(i.g, k)
	return res.Sets, res.Covered
}

// GreedySetCover runs the offline ln(m)-approximate greedy set cover on
// the full instance.
func (i *Instance) GreedySetCover() (sets []int, covered int) {
	res := greedy.SetCover(i.g)
	return res.Sets, res.Covered
}

// WriteText serializes the instance as a text edge list ("c n m" header,
// then "set elem" lines).
func (i *Instance) WriteText(w io.Writer) error { return bipartite.WriteText(w, i.g) }

// WriteBinary serializes the instance in the compact binary format.
func (i *Instance) WriteBinary(w io.Writer) error { return bipartite.WriteBinary(w, i.g) }

// ReadInstance parses an instance written by WriteText or WriteBinary,
// sniffing the format from the first bytes.
func ReadInstance(r io.Reader) (*Instance, error) {
	br := newPeekReader(r)
	head, err := br.Peek(5)
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("streamcover: empty input: %w", err)
	}
	var g *bipartite.Graph
	if string(head) == "BCOV1" {
		g, err = bipartite.ReadBinary(br)
	} else {
		g, err = bipartite.ReadText(br)
	}
	if err != nil {
		return nil, err
	}
	return &Instance{g: g}, nil
}

// graph exposes the internal graph to sibling files of this package.
func (i *Instance) graph() *bipartite.Graph { return i.g }
