package core

import (
	"sort"

	"repro/internal/bipartite"
	"repro/internal/hashing"
)

// This file contains the offline (random-access) constructions of the
// intermediary sketches Hp and H′p from Section 2, and the offline H≤n
// construction of Algorithm 1. They exist for three reasons: the accuracy
// experiments of Lemma 2.2/2.3 sweep p directly, Figure 1 renders Hp and
// H′p, and the property tests verify that the streaming construction
// (Algorithm 2) produces exactly the same sketch as Algorithm 1.

// BuildHp returns the subgraph of g induced by the elements whose hash
// (under seed) is at most p, as in Section 2: "Hp contains an edge e if
// and only if h(e) <= p". Element ids are preserved.
func BuildHp(g *bipartite.Graph, p float64, seed uint64) *bipartite.Graph {
	h := hashing.NewHasher(seed)
	bar := hashing.FromUnit(p)
	return g.Induce(func(elem uint32) bool { return h.Hash(elem) <= bar })
}

// BuildHpPrime returns H′p: Hp with every element's degree capped at
// degCap, surplus edges dropped (lowest set ids kept — the paper allows
// any choice). Element ids are preserved.
func BuildHpPrime(g *bipartite.Graph, p float64, degCap int, seed uint64) *bipartite.Graph {
	h := hashing.NewHasher(seed)
	bar := hashing.FromUnit(p)
	edges := make([]bipartite.Edge, 0, g.NumEdges())
	for e := 0; e < g.NumElems(); e++ {
		if h.Hash(uint32(e)) > bar {
			continue
		}
		sets := g.Elem(e)
		if len(sets) > degCap {
			sets = sets[:degCap]
		}
		for _, s := range sets {
			edges = append(edges, bipartite.Edge{Set: s, Elem: uint32(e)})
		}
	}
	ng, err := bipartite.FromEdges(g.NumSets(), g.NumElems(), edges)
	if err != nil {
		panic("core: BuildHpPrime: " + err.Error())
	}
	return ng
}

// BuildOffline runs Algorithm 1: it sorts the elements of g by hash value
// and inserts them (with degree capping) until the edge budget is
// reached. The result is a *Sketch identical to what the streaming
// construction produces on any edge ordering of g: both keep an element
// over the degree cap with its D smallest set ids.
func BuildOffline(g *bipartite.Graph, params Params) (*Sketch, error) {
	s, err := NewSketch(params)
	if err != nil {
		return nil, err
	}
	type he struct {
		hash uint64
		elem uint32
	}
	order := make([]he, 0, g.NumElems())
	for e := 0; e < g.NumElems(); e++ {
		if g.ElemDegree(e) == 0 {
			continue
		}
		order = append(order, he{hash: s.hash.Of(uint32(e)), elem: uint32(e)})
	}
	sort.Slice(order, func(i, j int) bool {
		return priorityLess(order[i].hash, order[i].elem, order[j].hash, order[j].elem)
	})
	// Algorithm 1: add elements of minimum hash while the sketch holds
	// fewer edges than the budget. Each element's incident edges go in as
	// one batch through the same ingest core as the streaming path.
	buf := make([]bipartite.Edge, 0, s.degCap)
	for _, oe := range order {
		if s.totalEdges >= s.budget {
			// Mark the bar at the first excluded element so PStar matches
			// the streaming construction.
			if !s.evicted {
				s.evicted = true
				s.barHash = oe.hash
				s.barElem = oe.elem
			}
			break
		}
		buf = buf[:0]
		for _, set := range g.Elem(int(oe.elem)) {
			buf = append(buf, bipartite.Edge{Set: set, Elem: oe.elem})
		}
		s.AddEdges(buf)
	}
	return s, nil
}

// FigureExample reproduces the structure of the paper's Figure 1: given a
// tiny graph, a probability p and a degree cap, it reports per element
// whether each incident edge lands in Hp and in H′p. Used by the
// fig1-sketch experiment to render the ASCII figure.
type FigureEdge struct {
	Set, Elem uint32
	HashUnit  float64 // h(elem) in [0,1)
	InHp      bool
	InHpPrime bool
}

// FigureEdges enumerates every edge of g annotated with its Figure-1
// status under the given p, degree cap and seed.
func FigureEdges(g *bipartite.Graph, p float64, degCap int, seed uint64) []FigureEdge {
	h := hashing.NewHasher(seed)
	bar := hashing.FromUnit(p)
	out := make([]FigureEdge, 0, g.NumEdges())
	for e := 0; e < g.NumElems(); e++ {
		inHp := h.Hash(uint32(e)) <= bar
		for rank, s := range g.Elem(e) {
			out = append(out, FigureEdge{
				Set:       s,
				Elem:      uint32(e),
				HashUnit:  h.Unit(uint32(e)),
				InHp:      inHp,
				InHpPrime: inHp && rank < degCap,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Set != out[j].Set {
			return out[i].Set < out[j].Set
		}
		return out[i].Elem < out[j].Elem
	})
	return out
}
