// Package bipartite represents coverage-problem instances as bipartite
// graphs between a family of n sets and a ground set of m elements,
// following the paper's modeling (Section 1.1): the instance is a graph G
// with one vertex per set, one per element, and an edge (S, i) whenever
// element i belongs to set S. The coverage function of a subfamily S is
// C(S) = |Γ(G, S)|, the number of distinct element-neighbors.
//
// The package stores instances in compressed sparse row (CSR) form in both
// directions, provides exact coverage evaluation, and (de)serializes edge
// lists. Throughout the repository, as in the paper, n denotes the number
// of sets and m the number of elements.
package bipartite

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
)

// Edge is one (set, element) membership pair — the unit of the
// edge-arrival streaming model.
type Edge struct {
	Set  uint32
	Elem uint32
}

// Graph is an immutable coverage instance. Sets are numbered 0..n-1 and
// elements 0..m-1. Duplicate edges are removed at construction, so each
// adjacency list contains distinct, sorted ids.
//
// A version of SlotSets (slots.go) is a Graph too: its elements are slots,
// some of which may be absent — no longer part of the instance, though
// their ids stay in the set lists. Absent elements belong to no set as far
// as every method except Set is concerned, and the evaluators treat them
// as covered from the start, so they add no gain and are never counted.
type Graph struct {
	numSets  int
	numElems int

	setOff []int64  // len numSets+1; setAdj[setOff[s]:setOff[s+1]] = elements of set s
	setAdj []uint32 // sorted within each set

	// A SlotSets version keeps its set lists here instead (setOff and setAdj
	// are nil) with each set's present size, the absent slots in absent (nil
	// when there are none), and counts its present elements and their edges
	// in live and edges. Its element side is built on first use (elemOnce).
	lists    [][]uint32
	sizes    []int32
	absent   bitset.Bitset
	live     int
	edges    int
	elemOnce sync.Once

	elemOff []int64  // len numElems+1; elemAdj[...] = sets containing the element
	elemAdj []uint32 // sorted within each element

	// coverOnce/coverIndex lazily cache the dense per-set bitmap index
	// behind the bitset coverage engine (cover.go); built at most once
	// per graph and shared by every BitsetCoverer.
	coverOnce  sync.Once
	coverIndex *setBitmaps
}

// FromEdges builds a Graph from an edge list. numSets and numElems fix the
// vertex ranges; they must be at least 1 + the largest id appearing in
// edges (isolated trailing sets/elements are allowed, matching instances
// where some sets are empty). Duplicate edges are coalesced. The input
// slice is not modified.
func FromEdges(numSets, numElems int, edges []Edge) (*Graph, error) {
	if numSets < 0 || numElems < 0 {
		return nil, fmt.Errorf("bipartite: negative dimensions n=%d m=%d", numSets, numElems)
	}
	for _, e := range edges {
		if int(e.Set) >= numSets {
			return nil, fmt.Errorf("bipartite: edge set id %d out of range [0,%d)", e.Set, numSets)
		}
		if int(e.Elem) >= numElems {
			return nil, fmt.Errorf("bipartite: edge element id %d out of range [0,%d)", e.Elem, numElems)
		}
	}
	g := &Graph{numSets: numSets, numElems: numElems}

	// Counting sort by set, then sort-dedupe each adjacency list.
	counts := make([]int64, numSets+1)
	for _, e := range edges {
		counts[e.Set+1]++
	}
	for i := 0; i < numSets; i++ {
		counts[i+1] += counts[i]
	}
	adj := make([]uint32, len(edges))
	next := make([]int64, numSets)
	copy(next, counts[:numSets])
	for _, e := range edges {
		adj[next[e.Set]] = e.Elem
		next[e.Set]++
	}
	// Sort and dedupe per set, compacting in place.
	off := make([]int64, numSets+1)
	w := int64(0)
	for s := 0; s < numSets; s++ {
		lo, hi := counts[s], counts[s+1]
		seg := adj[lo:hi]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		off[s] = w
		var prev uint32
		first := true
		for _, v := range seg {
			if first || v != prev {
				adj[w] = v
				w++
				prev = v
				first = false
			}
		}
	}
	off[numSets] = w
	g.setOff = off
	g.setAdj = adj[:w:w]
	g.buildElemIndex()
	return g, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and
// generators whose inputs are valid by construction.
func MustFromEdges(numSets, numElems int, edges []Edge) *Graph {
	g, err := FromEdges(numSets, numElems, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// FromElemCSR builds a Graph from its element side in CSR form:
// elemAdj[elemOff[e]:elemOff[e+1]] lists the sets containing element e,
// strictly ascending. The graph adopts both slices as they are — the
// caller must not modify them afterwards — and derives the set side in
// one counting pass; visiting elements in ascending order leaves every
// set's list sorted and duplicate-free, so nothing is sorted or
// compacted. Malformed input (non-monotone or out-of-range offsets, a
// set id outside [0, numSets), an unsorted or repeated id within a
// list) is an error.
func FromElemCSR(numSets int, elemOff []int64, elemAdj []uint32) (*Graph, error) {
	if numSets < 0 {
		return nil, fmt.Errorf("bipartite: negative dimension n=%d", numSets)
	}
	if len(elemOff) == 0 || elemOff[0] != 0 || elemOff[len(elemOff)-1] != int64(len(elemAdj)) {
		return nil, fmt.Errorf("bipartite: element offsets do not span the %d-entry adjacency array", len(elemAdj))
	}
	numElems := len(elemOff) - 1
	counts := make([]int64, numSets+1)
	for e := 0; e < numElems; e++ {
		lo, hi := elemOff[e], elemOff[e+1]
		if lo > hi || hi > int64(len(elemAdj)) {
			return nil, fmt.Errorf("bipartite: element %d has offsets [%d,%d) outside the adjacency array", e, lo, hi)
		}
		for i := lo; i < hi; i++ {
			s := elemAdj[i]
			if int(s) >= numSets {
				return nil, fmt.Errorf("bipartite: edge set id %d out of range [0,%d)", s, numSets)
			}
			if i > lo && elemAdj[i-1] >= s {
				return nil, fmt.Errorf("bipartite: element %d lists its sets out of order", e)
			}
			counts[s+1]++
		}
	}
	for s := 0; s < numSets; s++ {
		counts[s+1] += counts[s]
	}
	adj := make([]uint32, len(elemAdj))
	next := make([]int64, numSets)
	copy(next, counts[:numSets])
	for e := 0; e < numElems; e++ {
		for _, s := range elemAdj[elemOff[e]:elemOff[e+1]] {
			adj[next[s]] = uint32(e)
			next[s]++
		}
	}
	return &Graph{
		numSets: numSets, numElems: numElems,
		setOff: counts, setAdj: adj,
		elemOff: elemOff, elemAdj: elemAdj,
	}, nil
}

// FromSets builds a Graph from explicit element lists, one per set.
func FromSets(numElems int, sets [][]uint32) (*Graph, error) {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	edges := make([]Edge, 0, total)
	for si, s := range sets {
		for _, e := range s {
			edges = append(edges, Edge{Set: uint32(si), Elem: e})
		}
	}
	return FromEdges(len(sets), numElems, edges)
}

// buildElemIndex constructs the element→sets CSR from the set→elements
// one; absent elements get empty lists.
func (g *Graph) buildElemIndex() {
	counts := make([]int64, g.numElems+1)
	for s := 0; s < g.numSets; s++ {
		for _, e := range g.Set(s) {
			if !g.Absent(e) {
				counts[e+1]++
			}
		}
	}
	for i := 0; i < g.numElems; i++ {
		counts[i+1] += counts[i]
	}
	adj := make([]uint32, counts[g.numElems])
	next := make([]int64, g.numElems)
	copy(next, counts[:g.numElems])
	for s := 0; s < g.numSets; s++ {
		for _, e := range g.Set(s) {
			if !g.Absent(e) {
				adj[next[e]] = uint32(s)
				next[e]++
			}
		}
	}
	g.elemOff = counts
	g.elemAdj = adj
}

// elemIndex returns the element side, building it on a SlotSets version's
// first call.
func (g *Graph) elemIndex() ([]int64, []uint32) {
	if g.lists != nil {
		g.elemOnce.Do(g.buildElemIndex)
	}
	return g.elemOff, g.elemAdj
}

// Absent reports whether element e is absent: an id a SlotSets version's
// set lists still hold for an element that is no longer in the instance.
// A graph built any other way has no absent elements.
func (g *Graph) Absent(e uint32) bool {
	return g.absent != nil && g.absent.Get(int(e))
}

// NumSets returns n, the number of sets.
func (g *Graph) NumSets() int { return g.numSets }

// NumElems returns m, the number of elements in the ground set.
func (g *Graph) NumElems() int { return g.numElems }

// NumEdges returns the number of distinct (set, element) memberships.
func (g *Graph) NumEdges() int {
	if g.lists != nil {
		return g.edges
	}
	return len(g.setAdj)
}

// Set returns the sorted element ids of set s, absent ones included. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Set(s int) []uint32 {
	if g.lists != nil {
		return g.lists[s]
	}
	return g.setAdj[g.setOff[s]:g.setOff[s+1]]
}

// SetLen returns |set s|: the elements it holds, which Set may list
// beside absent ones.
func (g *Graph) SetLen(s int) int {
	if g.lists != nil {
		return int(g.sizes[s])
	}
	return int(g.setOff[s+1] - g.setOff[s])
}

// Elem returns the sorted ids of the sets containing element e. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Elem(e int) []uint32 {
	off, adj := g.elemIndex()
	return adj[off[e]:off[e+1]]
}

// ElemDegree returns the number of sets containing element e.
func (g *Graph) ElemDegree(e int) int {
	off, _ := g.elemIndex()
	return int(off[e+1] - off[e])
}

// Edges appends every edge of the graph to dst and returns it. Edges are
// emitted grouped by set in increasing order; use stream.Shuffled for
// arbitrary-order arrival.
func (g *Graph) Edges(dst []Edge) []Edge {
	if dst == nil {
		dst = make([]Edge, 0, g.NumEdges())
	}
	for s := 0; s < g.numSets; s++ {
		for _, e := range g.Set(s) {
			if !g.Absent(e) {
				dst = append(dst, Edge{Set: uint32(s), Elem: e})
			}
		}
	}
	return dst
}

// Contains reports whether element e belongs to set s.
func (g *Graph) Contains(s int, e uint32) bool {
	if g.Absent(e) {
		return false
	}
	adj := g.Set(s)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= e })
	return i < len(adj) && adj[i] == e
}

// Coverage returns C(S) = |∪_{s∈sets} set s|, the paper's coverage
// function. It allocates a scratch marker; use a Coverer for repeated
// evaluation.
func (g *Graph) Coverage(sets []int) int {
	c := NewCoverer(g)
	return c.Add(sets...)
}

// MaxElemDegree returns the largest element degree.
func (g *Graph) MaxElemDegree() int {
	best := 0
	for e := 0; e < g.numElems; e++ {
		if d := g.ElemDegree(e); d > best {
			best = d
		}
	}
	return best
}

// CoveredElems returns the number of non-isolated elements (elements with
// at least one incident edge). The paper assumes no isolated elements; the
// generators here guarantee it, but the library tolerates them and set
// cover is defined over covered elements only.
func (g *Graph) CoveredElems() int {
	if g.lists != nil {
		return g.live // a present slot holds at least one edge (SlotSets)
	}
	c := 0
	for e := 0; e < g.numElems; e++ {
		if g.ElemDegree(e) > 0 {
			c++
		}
	}
	return c
}

// Induce returns the subgraph keeping only elements for which keep returns
// true. Set ids are preserved; element ids are preserved too (the ground
// set size stays m) so coverage values remain directly comparable.
func (g *Graph) Induce(keep func(elem uint32) bool) *Graph {
	edges := make([]Edge, 0, g.NumEdges())
	for s := 0; s < g.numSets; s++ {
		for _, e := range g.Set(s) {
			if !g.Absent(e) && keep(e) {
				edges = append(edges, Edge{Set: uint32(s), Elem: e})
			}
		}
	}
	ng, err := FromEdges(g.numSets, g.numElems, edges)
	if err != nil {
		panic("bipartite: Induce produced invalid edges: " + err.Error())
	}
	return ng
}

// Coverer evaluates coverage incrementally: Add marks the elements of the
// given sets and returns the running total of distinct covered elements.
// It uses an epoch-stamped marker array, so Reset is O(1) plus one stamp
// per absent element: absent elements are stamped from the start, which
// costs the scans nothing.
type Coverer struct {
	g       *Graph
	stamp   []uint32
	epoch   uint32
	covered int
}

// NewCoverer returns a Coverer for g.
func NewCoverer(g *Graph) *Coverer {
	c := &Coverer{g: g, stamp: make([]uint32, g.numElems), epoch: 1}
	c.stampAbsent()
	return c
}

// Reset clears the covered-set.
func (c *Coverer) Reset() {
	c.epoch++
	c.covered = 0
	if c.epoch == 0 { // wrapped: clear and restart
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
	c.stampAbsent()
}

// stampAbsent marks the absent elements covered without counting them.
func (c *Coverer) stampAbsent() {
	if c.g.absent != nil {
		c.g.absent.IterOnes(func(e int) bool {
			c.stamp[e] = c.epoch
			return true
		})
	}
}

// Add marks every element of the given sets and returns the total number
// of distinct elements covered so far.
func (c *Coverer) Add(sets ...int) int {
	for _, s := range sets {
		for _, e := range c.g.Set(s) {
			if c.stamp[e] != c.epoch {
				c.stamp[e] = c.epoch
				c.covered++
			}
		}
	}
	return c.covered
}

// Marginal returns |set s \ covered| without changing the state.
func (c *Coverer) Marginal(s int) int {
	gain := 0
	for _, e := range c.g.Set(s) {
		if c.stamp[e] != c.epoch {
			gain++
		}
	}
	return gain
}

// Covered returns the number of distinct elements covered so far.
func (c *Coverer) Covered() int { return c.covered }

// IsCovered reports whether element e has been covered; an absent element
// always has.
func (c *Coverer) IsCovered(e uint32) bool { return c.stamp[e] == c.epoch }
