package core

import (
	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Sketch is the H≤n coverage sketch (Definition 2.1) with the one-pass
// edge-arrival construction of Algorithm 2. A Sketch is not safe for
// concurrent use; for parallelism, build one sketch per goroutine over
// disjoint shards and merge their views (see merge.go, MergeViews and
// internal/distributed).
//
// Online equivalence with the paper's Algorithm 2: the sketch maintains
// the invariant that the kept elements are exactly those with the
// smallest hash priorities whose capped degrees sum to at least the edge
// budget B (the minimal such prefix). Evictions always remove the
// current largest-priority element, so an evicted element is never
// readmitted — the eviction bar only moves down. Arriving edges of
// elements at or above the bar are discarded in O(1). Since every
// eviction takes the largest, the kept elements sit in a pop-only max-heap
// whose entries carry their priority inline, so a shrink or a shed pops
// without reading the slot array.
type Sketch struct {
	params Params
	budget int
	degCap int
	// slack bounds how far totalEdges may overshoot the budget between
	// deferred shrinks on the batched ingest path (see AddEdges).
	slack int
	hash  Priority

	index map[uint32]int32 // element id -> slot index
	slots []slot
	free  []int32
	// heap is a max-heap of the kept elements by (hash, elem), each entry
	// carrying its priority inline: every eviction takes the root (shrink
	// and foldBar), so a shed compares and moves entries without reading
	// the slot array, and no slot records where its entry sits.
	heap []heapEntry
	// dirty lists the slots that stored an edge since the last Cut, each
	// once (slot.dirty says whether a slot is on it), so it is bounded by
	// the slot count. Eviction leaves both alone: a freed slot is skipped
	// by Cut, a reused one is still on the list for its new element.
	dirty []int32

	totalEdges int
	// setCap is the summed capacity of every slot's set list, freed slots
	// included (an evicted slot keeps its array for the next element), so
	// Stats prices the payload without walking the slot array.
	setCap int64

	// Eviction bar: the smallest (hash, elem) pair ever evicted. Every
	// kept element compares strictly below it.
	evicted    bool
	barHash    uint64
	barElem    uint32
	peakEdges  int
	edgesSeen  int64
	dupEdges   int64
	dropDegree int64
	dropHash   int64
}

// slot is one element's storage. Fields are ordered widest first so the
// struct packs into 40 bytes.
type slot struct {
	hash uint64
	// sets holds the element's distinct set ids ascending, at most degCap
	// of them: the degCap smallest ids of the element's edges seen so far
	// (see addToSlot).
	sets  []uint32
	elem  uint32
	dirty bool // on Sketch.dirty
	kept  bool // holds a kept element, so it has a heap entry; false once freed
}

// heapEntry is a kept element's place in the eviction heap: its priority
// and its slot.
type heapEntry struct {
	hash uint64
	elem uint32
	slot int32
}

// NewSketch returns an empty sketch for the given parameters.
func NewSketch(params Params) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		params: params,
		budget: params.EffectiveEdgeBudget(),
		degCap: params.EffectiveDegreeCap(),
		hash:   params.Priority(),
		index:  make(map[uint32]int32),
	}
	// Shrink slack: the batched path lets the sketch overshoot the budget
	// by this many edges before re-enforcing Definition 2.1. Larger slack
	// amortizes shrink better; smaller slack keeps the eviction bar fresh
	// (so the cheap hash-only drop path engages sooner) and bounds the
	// transient memory overshoot.
	s.slack = s.budget / 8
	if s.slack < 128 {
		s.slack = 128
	}
	return s, nil
}

// MustNewSketch is NewSketch that panics on invalid parameters.
func MustNewSketch(params Params) *Sketch {
	s, err := NewSketch(params)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the sketch parameters.
func (s *Sketch) Params() Params { return s.params }

// Budget returns the effective edge budget B.
func (s *Sketch) Budget() int { return s.budget }

// DegreeCap returns the effective per-element degree cap D.
func (s *Sketch) DegreeCap() int { return s.degCap }

// priorityLess orders (hash, elem) pairs; it breaks hash ties by element
// id so that the order is a strict total order even under hash collisions.
func priorityLess(h1 uint64, e1 uint32, h2 uint64, e2 uint32) bool {
	if h1 != h2 {
		return h1 < h2
	}
	return e1 < e2
}

// AddEdge processes one stream edge (Algorithm 2's update step): the
// one-edge case of AddEdges.
func (s *Sketch) AddEdge(e bipartite.Edge) {
	s.edgesSeen++
	s.insert(e, true)
	s.shrink()
}

// AddEdges processes a batch of stream edges. It is equivalent to calling
// AddEdge on each edge in order — same kept elements, same per-element
// set lists, same eviction bar (pinned by TestBatchEqualsIncremental) —
// but amortizes the per-edge overheads over the batch:
//
//   - Every kept element is strictly below the eviction bar (the bar only
//     moves down and evicted elements are never readmitted), so an edge
//     whose element hashes at or above the bar is dropped after one
//     SplitMix64 call, before the index lookup that dominates the
//     per-edge cost.
//   - shrink() — re-enforcing the Definition 2.1 minimal-prefix invariant
//     — is deferred to slack boundaries and to the end of the batch
//     instead of running after every edge. Deferral is sound because the
//     sketch is an order-invariant function of the absorbed edge set:
//     any insert/shrink interleaving that ends with a shrink reaches the
//     same fixed point (see DESIGN.md §6 for the argument).
//
// Below-bar elements still short-circuit before any allocation, and the
// transient budget overshoot between shrinks is bounded by the sketch's
// slack (budget/8, at least 128 edges).
func (s *Sketch) AddEdges(edges []bipartite.Edge) {
	for _, e := range edges {
		s.edgesSeen++
		s.insert(e, true)
	}
	s.shrink()
}

// Bar returns the sketch's eviction bar, as View.Bar does for a view. It
// only moves down: an eviction, a folded bar and LowerBar each lower it or
// leave it.
func (s *Sketch) Bar() (hash uint64, elem uint32, ok bool) {
	return s.barHash, s.barElem, s.evicted
}

// Priority returns the element hash the sketch orders, keeps and drops by.
func (s *Sketch) Priority() Priority { return s.hash }

// AddDropped accounts n stream edges a caller dropped in the sketch's
// stead: each of an element whose Priority was strictly above the hash
// half of the Bar when the caller read it. The bar only moves down, so
// AddEdges of those edges would have dropped each one after its hash and
// changed nothing else; AddDropped moves EdgesSeen and DropHash exactly as
// that AddEdges would, and leaves every view of the sketch as it would. A
// caller that drops edges from an AddEdges call and accounts them here,
// keeping its calls where they were, therefore ends with the Stats and
// views those calls give: where a call ends decides where the sketch
// shrinks, and so how later edges are counted.
func (s *Sketch) AddDropped(n int64) {
	s.edgesSeen += n
	s.dropHash += n
}

// insert applies the kept-edge admission policy for one edge on the
// deferred-shrink paths: bar-first hash drop, index lookup, alloc, slot
// insert, and budget re-enforcement at slack boundaries only. count
// selects stream accounting (false on the restore path). AddEdge,
// AddEdges and absorb all go through here so the admission policy cannot
// diverge between streaming and restore ingest.
func (s *Sketch) insert(e bipartite.Edge, count bool) {
	h := s.hash.Of(e.Elem)
	if s.evicted && !priorityLess(h, e.Elem, s.barHash, s.barElem) {
		if count {
			s.dropHash++
		}
		return
	}
	si, ok := s.index[e.Elem]
	if !ok {
		si = s.alloc(e.Elem, h)
	}
	s.addToSlot(si, e.Set, count)
	if s.totalEdges >= s.budget+s.slack {
		s.shrink()
	}
}

// streamBatch is the internal batch size AddStream feeds to AddEdges.
const streamBatch = 2048

// AddStream drains st into the sketch and returns the number of edges
// consumed. It is the whole single pass of Algorithm 2, fed through the
// batched AddEdges path.
func (s *Sketch) AddStream(st stream.Stream) int {
	return addStream(st, s.AddEdges)
}

// addStream feeds st to add in streamBatch-sized batches and returns the
// number of edges consumed. Shared by Sketch.AddStream and
// Ensemble.AddStream.
func addStream(st stream.Stream, add func([]bipartite.Edge)) int {
	// The callback never fails, so neither does Batches.
	n, _ := stream.Batches(st, streamBatch, func(b []bipartite.Edge) error {
		add(b)
		return nil
	})
	return int(n)
}

// absorb is the merge/restore ingest path: it inserts an edge with the
// same kept-edge policy as AddEdges but without touching the stream
// accounting (edgesSeen, dupEdges, dropDegree, dropHash) — a re-folded
// kept edge is not stream traffic. Callers must shrink() afterwards;
// absorb itself only re-enforces the budget at slack boundaries.
func (s *Sketch) absorb(e bipartite.Edge) {
	s.insert(e, false)
}

func (s *Sketch) alloc(elem uint32, h uint64) int32 {
	var si int32
	if len(s.free) > 0 {
		si = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		sl := &s.slots[si]
		sl.hash, sl.elem, sl.kept = h, elem, true
		sl.sets = sl.sets[:0]
	} else {
		s.slots = append(s.slots, slot{hash: h, elem: elem, kept: true})
		si = int32(len(s.slots) - 1)
	}
	s.index[elem] = si
	s.heapPush(heapEntry{hash: h, elem: elem, slot: si})
	return si
}

// addToSlot records set as incident to the slot's element. The list stays
// ascending and holds the degCap smallest distinct ids the element has
// shown: of the D-subsets Definition 2.1 allows an element over the cap,
// the one that depends only on the edge set, which BuildOffline and
// MergeViews keep as well. On a full list an id above the largest drops
// after one compare, and a smaller one takes the largest's place.
// Duplicates are rejected exactly — totalEdges always counts distinct
// edges, so the budget checks stay sound. A list that changed is marked
// dirty for the next Cut. count selects whether the dup/degree-drop stream
// counters are updated (false on the merge/restore path).
func (s *Sketch) addToSlot(si int32, set uint32, count bool) {
	sl := &s.slots[si]
	sets, n := sl.sets, len(sl.sets)
	full := n >= s.degCap
	if full && set > sets[n-1] {
		if count {
			s.dropDegree++
		}
		return
	}
	// i is where set belongs: a linear scan over the short lists most
	// elements have, a binary search over long ones.
	i := 0
	if n <= 16 {
		for i < n && sets[i] < set {
			i++
		}
	} else {
		for hi := n; i < hi; {
			if m := int(uint(i+hi) >> 1); sets[m] < set {
				i = m + 1
			} else {
				hi = m
			}
		}
	}
	if i < n && sets[i] == set {
		if count {
			s.dupEdges++
		}
		return
	}
	if full {
		// The largest id leaves, so the list keeps its length.
		copy(sets[i+1:], sets[i:n-1])
		sets[i] = set
		if count {
			s.dropDegree++
		}
	} else {
		capBefore := cap(sets)
		if capBefore == 0 {
			// First edge of a fresh slot: skip the tiny append growth steps
			// (1→2→4) that dominate allocation churn during a build.
			sets = make([]uint32, 0, min(s.degCap, 8))
		}
		sets = append(sets, 0)
		copy(sets[i+1:], sets[i:n])
		sets[i] = set
		sl.sets = sets
		s.setCap += int64(cap(sets) - capBefore)
		s.totalEdges++
		// Peak residency is tracked at insert time so the batched path's
		// transient overshoot between deferred shrinks (bounded by slack) is
		// reported honestly in the space accounting.
		if s.totalEdges > s.peakEdges {
			s.peakEdges = s.totalEdges
		}
	}
	if !sl.dirty {
		sl.dirty = true
		s.dirty = append(s.dirty, si)
	}
}

// shrink enforces Definition 2.1: keep the minimal hash-prefix of
// elements whose kept edges total at least the budget. While removing the
// largest-priority element still leaves >= budget edges, remove it.
func (s *Sketch) shrink() {
	for len(s.heap) > 1 {
		if s.totalEdges-len(s.slots[s.heap[0].slot].sets) < s.budget {
			return
		}
		s.evictTop()
	}
}

// evictTop evicts the largest-priority kept element, the heap's root, and
// lowers the bar to it.
func (s *Sketch) evictTop() {
	top := s.heap[0]
	if !s.evicted || priorityLess(top.hash, top.elem, s.barHash, s.barElem) {
		s.evicted = true
		s.barHash = top.hash
		s.barElem = top.elem
	}
	sl := &s.slots[top.slot]
	s.totalEdges -= len(sl.sets)
	delete(s.index, top.elem)
	sl.kept = false
	sl.sets = sl.sets[:0]
	s.free = append(s.free, top.slot)
	s.heapPop()
}

// --- max-heap of kept elements keyed by (hash, elem) ---
//
// Entries are only pushed (alloc) and popped at the root (evictTop), so
// both sifts move a hole and write each entry they pass once.

// above reports whether a sits above b in the heap: a's priority is larger.
func (a heapEntry) above(b heapEntry) bool { return priorityLess(b.hash, b.elem, a.hash, a.elem) }

func (s *Sketch) heapPush(x heapEntry) {
	s.heap = append(s.heap, x)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.above(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// heapPop removes the root: the last entry fills the hole the root left,
// sifted down past every larger child.
func (s *Sketch) heapPop() {
	n := len(s.heap) - 1
	x, h := s.heap[n], s.heap[:n]
	s.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].above(h[c]) {
			c = r
		}
		if !h[c].above(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// --- accessors ---

// Elements returns the number of elements currently kept.
func (s *Sketch) Elements() int { return len(s.index) }

// Edges returns the number of edges currently kept.
func (s *Sketch) Edges() int { return s.totalEdges }

// PStar returns the sampling probability p* of the sketch: the fraction
// of hash space below the eviction bar, or 1 when nothing was evicted
// (the sketch then holds the entire capped input).
func (s *Sketch) PStar() float64 {
	if !s.evicted {
		return 1
	}
	return hashing.ToUnit(s.barHash)
}

// Contains reports whether element elem is currently kept.
func (s *Sketch) Contains(elem uint32) bool {
	_, ok := s.index[elem]
	return ok
}

// SetsOf returns the kept set ids incident to elem, sorted ascending
// (nil if not kept). The slice aliases internal storage and must not be
// modified.
func (s *Sketch) SetsOf(elem uint32) []uint32 {
	si, ok := s.index[elem]
	if !ok {
		return nil
	}
	return s.slots[si].sets
}

// Coverage counts kept elements covered by the selected sets:
// |Γ(H≤n, S)| for S = {s : selected(s)}.
func (s *Sketch) Coverage(selected func(set uint32) bool) int {
	covered := 0
	for _, x := range s.heap {
		for _, set := range s.slots[x.slot].sets {
			if selected(set) {
				covered++
				break
			}
		}
	}
	return covered
}

// CoverageOf is Coverage for an explicit id list.
func (s *Sketch) CoverageOf(sets []int) int {
	sel := make(map[uint32]struct{}, len(sets))
	for _, x := range sets {
		sel[uint32(x)] = struct{}{}
	}
	return s.Coverage(func(set uint32) bool {
		_, ok := sel[set]
		return ok
	})
}

// EstimateCoverage returns the unbiased-scaled coverage estimate
// |Γ(H≤n, S)| / p* of Lemma 2.2 for the given sets.
func (s *Sketch) EstimateCoverage(sets []int) float64 {
	return float64(s.CoverageOf(sets)) / s.PStar()
}

// Graph materializes the sketch as a bipartite graph: set ids are
// preserved; kept elements are renumbered 0..Elements()-1 in increasing
// hash order (the order is irrelevant to coverage). The second return
// value maps new element ids back to original ones. It only reads the
// sketch: the graph is built from its canonical view (see View.Graph).
func (s *Sketch) Graph() (*bipartite.Graph, []uint32) {
	g, ids, err := s.Freeze().Graph()
	if err != nil {
		panic("core: sketch graph construction failed: " + err.Error())
	}
	return g, ids
}

// Stats reports the resource usage and stream accounting of the sketch.
type Stats struct {
	EdgesSeen    int64 // edges consumed from the stream
	EdgesKept    int   // edges currently stored
	PeakEdges    int   // maximum edges ever stored simultaneously
	ElementsKept int   // elements currently stored
	Budget       int   // effective edge budget B
	DegreeCap    int   // effective degree cap D
	DupEdges     int64 // duplicate (set,elem) pairs discarded
	DropDegree   int64 // edges discarded by the degree cap
	DropHash     int64 // edges discarded by the eviction bar
	PStar        float64
	Bytes        int64 // approximate resident bytes of the sketch payload
}

// Stats returns a snapshot of the sketch accounting.
func (s *Sketch) Stats() Stats {
	bytes := 24*int64(len(s.slots)) /* slot headers */ + 4*s.setCap +
		int64(len(s.heap))*16 + int64(len(s.index))*12
	return Stats{
		EdgesSeen:    s.edgesSeen,
		EdgesKept:    s.totalEdges,
		PeakEdges:    s.peakEdges,
		ElementsKept: len(s.index),
		Budget:       s.budget,
		DegreeCap:    s.degCap,
		DupEdges:     s.dupEdges,
		DropDegree:   s.dropDegree,
		DropHash:     s.dropHash,
		PStar:        s.PStar(),
		Bytes:        bytes,
	}
}
