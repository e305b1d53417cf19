package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/hashing"
)

// View is the immutable canonical form of an H≤n sketch: the kept
// elements in ascending (hash, elem) priority, each with its ascending
// set list, stored flat, plus the eviction bar and the parameters.
// Definition 2.1 says a sketch is nothing more than that — the elements
// in hash order with their capped set lists, up to the first prefix
// whose degrees reach the budget — so the view is the exchange form
// everything downstream of ingest works on: merging views is a sorted
// merge that stops at the budget (MergeViews), the flat lists are
// already the element side of the query graph (Graph), and walking the
// arrays in order emits the serialized bytes (WriteTo).
//
// A View is never modified after construction and may be shared freely
// between goroutines; the graph returned by Graph aliases its storage.
type View struct {
	params Params

	hashes []uint64 // ascending (hashes[i], elems[i])
	elems  []uint32
	off    []int64  // len(elems)+1; sets[off[i]:off[i+1]] belongs to elems[i]
	sets   []uint32 // ascending and distinct within each element

	// Eviction bar: every kept element compares strictly below it.
	evicted bool
	barHash uint64
	barElem uint32

	edgesSeen int64

	// capped holds when no list is longer than params' degree cap. Every
	// constructor sets it; only a view built by hand lacks it, and
	// MergeViews then looks for over-cap lists in it.
	capped bool
}

// Freeze returns the sketch's canonical view. It only reads the sketch
// (slot lists are already ascending, so they are copied as they are) and
// the view shares no storage with it, so further ingest never shows
// through.
func (s *Sketch) Freeze() *View {
	kept := make([]int32, len(s.heap))
	for i, x := range s.heap {
		kept[i] = x.slot
	}
	return s.freeze(kept, s.totalEdges)
}

// Cut is Freeze for a caller that cuts the same sketch again and again
// and merges each cut into the result of the merge before: it forgets
// which elements changed, and with delta set it returns only those — the
// kept elements that stored an edge since the previous Cut, each with its
// whole current set list, under the sketch's current bar and consumed-edge
// total. Like every view, a delta shares no storage with the sketch.
//
// On an append-only sketch a kept element's list is the D smallest ids of
// an edge set that only grows — it gains ids, and once full trades its
// largest for smaller ones — and what leaves is the priority suffix at or
// above the new bar, so the sketch now is the sketch at the previous Cut,
// cut at the new bar, with the delta's elements replaced or added:
// MergeViews over the delta and a view that already folded the previous
// Cut equals MergeViews over a full Cut (DESIGN.md §11 has the argument
// and when a caller may rely on it).
func (s *Sketch) Cut(delta bool) *View {
	changed, edges := s.dirty[:0], 0 // filtered in place; freeze only reads it
	for _, si := range s.dirty {
		sl := &s.slots[si]
		sl.dirty = false
		if sl.kept {
			changed = append(changed, si)
			edges += len(sl.sets)
		}
	}
	s.dirty = s.dirty[:0]
	if !delta {
		return s.Freeze()
	}
	return s.freeze(changed, edges)
}

// freeze builds the view of the kept slots listed in idx, which hold
// edges edges between them.
func (s *Sketch) freeze(idx []int32, edges int) *View {
	n := len(idx)
	v := &View{
		params:    s.params,
		hashes:    make([]uint64, n),
		elems:     make([]uint32, n),
		off:       make([]int64, n+1),
		sets:      make([]uint32, edges),
		evicted:   s.evicted,
		barHash:   s.barHash,
		barElem:   s.barElem,
		edgesSeen: s.edgesSeen,
		capped:    true,
	}
	if n == 0 {
		return v
	}
	// Order the slots by priority with a counting sort on the top bits of
	// the hash: kept hashes are uniform below the bar, so with as many
	// buckets as elements nearly every element lands in its final position
	// and the insertion pass below only settles neighbours. Until the last
	// pass v.elems holds slot indices, not element ids.
	maxHash := s.barHash // every kept hash is at most the bar's
	if !s.evicted {
		for _, si := range idx {
			if h := s.slots[si].hash; h > maxHash {
				maxHash = h
			}
		}
	}
	up := bits.LeadingZeros64(maxHash | 1)
	down := 64 - bits.Len(uint(n))
	next := make([]int32, (1<<(64-down))+1)
	for _, si := range idx {
		next[(s.slots[si].hash<<up)>>down+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	for _, si := range idx {
		h := s.slots[si].hash
		b := (h << up) >> down
		v.hashes[next[b]], v.elems[next[b]] = h, uint32(si)
		next[b]++
	}
	for i := 1; i < n; i++ {
		h, si := v.hashes[i], v.elems[i]
		j := i
		for j > 0 && (v.hashes[j-1] > h ||
			v.hashes[j-1] == h && s.slots[v.elems[j-1]].elem > s.slots[si].elem) {
			v.hashes[j], v.elems[j] = v.hashes[j-1], v.elems[j-1]
			j--
		}
		v.hashes[j], v.elems[j] = h, si
	}
	w := 0
	for i, si := range v.elems {
		sl := &s.slots[si]
		v.elems[i] = sl.elem
		w += copy(v.sets[w:], sl.sets)
		v.off[i+1] = int64(w)
	}
	return v
}

// Params returns the parameters the view's sketch was built with.
func (v *View) Params() Params { return v.params }

// Bar returns the view's eviction bar, the (hash, elem) priority every
// kept element compares strictly below; ok is false when nothing was
// ever evicted, and the view then holds its whole capped input.
func (v *View) Bar() (hash uint64, elem uint32, ok bool) {
	return v.barHash, v.barElem, v.evicted
}

// PStar returns the sampling probability p*: the fraction of hash space
// below the eviction bar, or 1 when nothing was evicted.
func (v *View) PStar() float64 {
	if !v.evicted {
		return 1
	}
	return hashing.ToUnit(v.barHash)
}

// Stats reports the view's accounting in the sketch's shape. The
// per-run drop counters describe a stream, not a summary, and stay zero.
func (v *View) Stats() Stats {
	n, e := int64(len(v.elems)), int64(len(v.sets))
	return Stats{
		EdgesSeen:    v.edgesSeen,
		EdgesKept:    len(v.sets),
		PeakEdges:    len(v.sets),
		ElementsKept: len(v.elems),
		Budget:       v.params.EffectiveEdgeBudget(),
		DegreeCap:    v.params.EffectiveDegreeCap(),
		PStar:        v.PStar(),
		Bytes:        20*n + 8 + 4*e, // hash, id and offset per element; one id per edge
	}
}

// Elems yields the kept elements in priority order, each with its
// ascending set list. The lists alias the view and must not be modified.
func (v *View) Elems() iter.Seq2[uint32, []uint32] {
	return func(yield func(uint32, []uint32) bool) {
		for i, elem := range v.elems {
			if !yield(elem, v.sets[v.off[i]:v.off[i+1]]) {
				return
			}
		}
	}
}

// Graph renders the view as a bipartite graph: set ids are preserved,
// kept elements are numbered from 0 in priority order, and the
// second return value maps those numbers back to original element ids.
// The view's own flat lists become the graph's element side, so both
// results alias the view and must not be modified. The only possible
// error is a set id outside [0, NumSets), which a sketch fed unvalidated
// edges can hold.
func (v *View) Graph() (*bipartite.Graph, []uint32, error) {
	g, err := bipartite.FromElemCSR(v.params.NumSets, v.off, v.sets)
	if err != nil {
		return nil, nil, fmt.Errorf("core: sketch graph: %w", err)
	}
	return g, v.elems, nil
}

// WriteTo serializes the view — parameters, eviction bar, consumed-edge
// total and every kept edge — in the compact little-endian format
// ReadView reads. Elements and set lists are already in the canonical
// order, so equal sketches serialize to equal bytes however they were
// built. It implements io.WriterTo.
func (v *View) WriteTo(w io.Writer) (int64, error) {
	p := v.params
	le := binary.LittleEndian
	buf := make([]byte, 0, len(SketchMagic)+98+8*len(v.elems)+4*len(v.sets))
	buf = append(buf, SketchMagic...)
	for _, f := range [...]uint64{
		uint64(p.NumSets), uint64(p.NumElems), uint64(p.K),
		math.Float64bits(p.Eps), math.Float64bits(p.DeltaPP),
		uint64(p.EdgeBudget), uint64(p.DegreeCap), math.Float64bits(p.SpaceFactor),
		p.Seed,
	} {
		buf = le.AppendUint64(buf, f)
	}
	buf = append(buf, 0, boolByte(v.evicted)) // hash family 0: SplitMix64
	buf = le.AppendUint64(buf, v.barHash)
	buf = le.AppendUint32(buf, v.barElem)
	buf = le.AppendUint64(buf, uint64(v.edgesSeen))
	buf = le.AppendUint32(buf, uint32(len(v.elems)))
	for i, elem := range v.elems {
		sets := v.sets[v.off[i]:v.off[i+1]]
		buf = le.AppendUint32(buf, elem)
		buf = le.AppendUint32(buf, uint32(len(sets)))
		for _, set := range sets {
			buf = le.AppendUint32(buf, set)
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// MergeViews folds views of sketches built with parameters compatible
// with params into the view of the merged sketch; edgesSeen is the
// consumed-edge total the result reports. Inputs are only read.
//
// A view is the Definition 2.1 prefix, so the merge is a k-way walk in
// priority order that stops at the cut: an element's merged set list is
// the sorted union of its input lists capped at the D smallest ids (the
// rule a sketch's own lists keep, see addToSlot), elements are taken
// while the degrees so far stay below the budget, and the walk never
// reaches an input's bar, above which that input's lists may be
// incomplete. The merged bar is the smaller of the input bars and the
// first element the budget excluded. That is exactly what folding the
// views one by one into a sketch with MergeView arrives at: MergeView
// evicts an element only when the prefix below it already holds a full
// budget, and later inputs only grow that prefix.
//
// Most merges are one large view plus small ones (a published view and
// shard deltas, a cluster view and peer deltas), so the input with the
// most elements is not walked at all: the others are, in a heap of
// cursors, and each element they yield is found in the large one by a
// galloping search forward from the last. The stretch of the large input
// before it is copied as one run, its budget checked once, and an element
// several inputs hold gets the linear union of their ascending lists.
// A list longer than the cap, which only a hand-built view holds (one
// not capped), ends a run and is taken on its own.
func MergeViews(params Params, edgesSeen int64, views ...*View) (*View, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	out := &View{params: params, edgesSeen: edgesSeen, capped: true}
	var (
		heads       []viewCursor
		big         *View
		elems, sets int
	)
	for _, v := range views {
		if v == nil {
			continue
		}
		if !params.sketchCompatible(v.params) {
			return nil, fmt.Errorf("core: cannot merge incompatible sketches (params %+v vs %+v)",
				params, v.params)
		}
		if v.evicted && (!out.evicted || priorityLess(v.barHash, v.barElem, out.barHash, out.barElem)) {
			out.evicted, out.barHash, out.barElem = true, v.barHash, v.barElem
		}
		elems += len(v.elems)
		sets += len(v.sets)
		if len(v.elems) > 0 {
			if big == nil || len(v.elems) > len(big.elems) {
				big, v = v, big
			}
			if v != nil {
				heads = append(heads, viewCursor{v: v})
			}
		}
	}
	if big == nil {
		out.off = []int64{0}
		return out, nil
	}
	budget, degCap := params.EffectiveEdgeBudget(), params.EffectiveDegreeCap()
	// Size the output for the cut, not for the inputs: at most budget+D
	// edges survive, and the prefix holding them has the inputs' average
	// degree. append absorbs a misestimate.
	if cut := budget + degCap; sets > cut {
		elems = int(float64(elems)*float64(cut)/float64(sets)) + elems/8 + 1
		sets = cut
	}
	out.hashes = make([]uint64, 0, elems)
	out.elems = make([]uint32, 0, elems)
	out.off = append(make([]int64, 0, elems+1), 0)
	out.sets = make([]uint32, 0, sets)

	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftCursor(heads, i)
	}
	// Each pass copies big[bi:end] as one run, end being the first of the
	// merged bar's position (bigEnd), the next list over the cap (long)
	// and the position of the next element another input yields, then
	// takes that element.
	bigEnd := len(big.elems)
	if out.evicted {
		bigEnd = big.search(0, out.barHash, out.barElem)
	}
	bi, long := 0, bigEnd
	if !big.capped {
		long = big.overCap(0, bigEnd, degCap)
	}
	var (
		lists   [][]uint32
		scratch []uint32
	)
	for {
		if bi > long {
			long = big.overCap(bi, bigEnd, degCap)
		}
		end := long
		if len(heads) > 0 {
			h, e := heads[0].head()
			end = min(end, big.search(bi, h, e))
		}
		if end > bi {
			// Element j of the run is taken while the edges before it stay
			// below the budget: off[j] < room. The first one that is not is
			// the merged bar.
			room := int64(budget-len(out.sets)) + big.off[bi]
			if big.off[end-1] >= room {
				stop, _ := slices.BinarySearch(big.off[bi:end], room)
				out.appendRun(big, bi, bi+stop)
				out.evicted, out.barHash, out.barElem = true, big.hashes[bi+stop], big.elems[bi+stop]
				break
			}
			out.appendRun(big, bi, end)
			bi = end
		}
		// The next element: big's, the heap's, or both.
		inBig := bi < len(big.elems)
		if !inBig && len(heads) == 0 {
			break
		}
		var h uint64
		var e uint32
		if inBig {
			h, e = big.hashes[bi], big.elems[bi]
		}
		if len(heads) > 0 {
			if ch, ce := heads[0].head(); !inBig || priorityLess(ch, ce, h, e) {
				h, e, inBig = ch, ce, false
			}
		}
		if out.evicted && !priorityLess(h, e, out.barHash, out.barElem) {
			break
		}
		if len(out.sets) >= budget {
			out.evicted, out.barHash, out.barElem = true, h, e
			break
		}
		lists = lists[:0]
		if inBig {
			lists = append(lists, big.sets[big.off[bi]:big.off[bi+1]])
			bi++
		}
		for len(heads) > 0 {
			c := &heads[0]
			if ch, ce := c.head(); ch != h || ce != e {
				break
			}
			lists = append(lists, c.v.sets[c.v.off[c.i]:c.v.off[c.i+1]])
			c.i++
			heads = settle(heads)
		}
		start := len(out.sets)
		if len(lists) == 1 {
			out.sets = append(out.sets, lists[0][:min(len(lists[0]), degCap)]...)
		} else {
			out.sets = appendUnion(out.sets, lists[0], lists[1], degCap)
			for _, l := range lists[2:] {
				scratch = append(scratch[:0], out.sets[start:]...)
				out.sets = appendUnion(out.sets[:start], scratch, l, degCap)
			}
		}
		out.hashes = append(out.hashes, h)
		out.elems = append(out.elems, e)
		out.off = append(out.off, int64(len(out.sets)))
	}
	return out, nil
}

// appendRun appends v's elements [i, j) with their lists as they are.
func (out *View) appendRun(v *View, i, j int) {
	shift, n := int64(len(out.sets))-v.off[i], len(out.off)
	out.hashes = append(out.hashes, v.hashes[i:j]...)
	out.elems = append(out.elems, v.elems[i:j]...)
	out.sets = append(out.sets, v.sets[v.off[i]:v.off[j]]...)
	out.off = append(out.off, v.off[i+1:j+1]...)
	for k := n; k < len(out.off); k++ {
		out.off[k] += shift
	}
}

// overCap returns the first position in [from, to) whose list is longer
// than degCap, or to if there is none.
func (v *View) overCap(from, to, degCap int) int {
	for i := from; i < to; i++ {
		if v.off[i+1]-v.off[i] > int64(degCap) {
			return i
		}
	}
	return to
}

// appendUnion appends to dst the union of the ascending, duplicate-free
// lists a and b, ascending and cut to its limit smallest ids.
func appendUnion(dst, a, b []uint32, limit int) []uint32 {
	n := len(dst)
	dst = slices.Grow(dst, min(len(a)+len(b), limit))
	out := dst[n : n+min(len(a)+len(b), limit)]
	i, j, k := 0, 0, 0
	for ; k < len(out) && i < len(a) && j < len(b); k++ {
		if x, y := a[i], b[j]; x <= y {
			out[k] = x
			i++
			if x == y {
				j++
			}
		} else {
			out[k] = y
			j++
		}
	}
	if i == len(a) {
		a, i = b, j
	}
	k += copy(out[k:], a[i:])
	return dst[:n+k]
}

// Restrict returns v restricted to the elements any of deltas holds: those
// of them v keeps, with v's lists, under v's bar, parameters and
// consumed-edge total (an element of a delta that v's budget cut excluded
// is left out). It is how a view is shipped as a delta: when v is
// MergeViews(P, deltas…) for some view P, MergeViews(P, v.Restrict(deltas…))
// with v's total is v byte for byte (DESIGN.md §11). Inputs are only read;
// the result shares no storage with them.
func (v *View) Restrict(deltas ...*View) *View {
	idx := v.Positions(deltas...)
	edges := 0
	for _, p := range idx {
		edges += int(v.off[p+1] - v.off[p])
	}
	out := &View{params: v.params, evicted: v.evicted, barHash: v.barHash, barElem: v.barElem, edgesSeen: v.edgesSeen, capped: v.capped}
	out.hashes = make([]uint64, len(idx))
	out.elems = make([]uint32, len(idx))
	out.off = make([]int64, len(idx)+1)
	out.sets = make([]uint32, 0, edges)
	for i, p := range idx {
		out.hashes[i], out.elems[i] = v.hashes[p], v.elems[p]
		out.sets = append(out.sets, v.sets[v.off[p]:v.off[p+1]]...)
		out.off[i+1] = int64(len(out.sets))
	}
	return out
}

// Positions returns the positions in v, ascending, of the elements any of
// deltas holds that v keeps: Restrict's elements, for a caller that keeps
// something per position of v and reads them with At. One walk over each
// delta in priority order, each element found in v by a search forward
// from the last one and marked in a bitmap of v's positions, so an element
// several deltas hold is named once. Inputs are only read.
func (v *View) Positions(deltas ...*View) []int {
	held := bitset.New(len(v.elems))
	for _, d := range deltas {
		if d == nil {
			continue
		}
		pos := 0
		for i, e := range d.elems {
			h := d.hashes[i]
			if pos = v.search(pos, h, e); pos == len(v.elems) {
				break
			}
			if v.hashes[pos] == h && v.elems[pos] == e {
				held.Set(pos)
				pos++
			}
		}
	}
	return held.Ones()
}

// At returns the element at position i of the priority order and its
// ascending set list, which aliases the view and must not be modified.
func (v *View) At(i int) (uint32, []uint32) {
	return v.elems[i], v.sets[v.off[i]:v.off[i+1]]
}

// search returns the first position at or after from whose element is not
// below (h, e) in priority. It gallops forward from from, then bisects the
// last step, so a walk that searches for ascending elements pays about the
// logarithm of each gap rather than of the whole view.
func (v *View) search(from int, h uint64, e uint32) int {
	below := func(i int) bool { return v.hashes[i] < h || v.hashes[i] == h && v.elems[i] < e }
	lo, hi, step := from, len(v.elems), 1
	for lo+step <= hi && below(lo+step-1) {
		lo += step
		step *= 2
	}
	hi = min(lo+step-1, hi) // the answer is in [lo, hi]
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); below(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// viewCursor is one input's position in the k-way walk.
type viewCursor struct {
	v *View
	i int
}

func (c viewCursor) head() (uint64, uint32) { return c.v.hashes[c.i], c.v.elems[c.i] }

// settle restores the heap after the top cursor advanced, dropping the
// cursor once its input is exhausted.
func settle(heads []viewCursor) []viewCursor {
	if c := &heads[0]; c.i == len(c.v.elems) {
		heads[0] = heads[len(heads)-1]
		heads = heads[:len(heads)-1]
	}
	siftCursor(heads, 0)
	return heads
}

// siftCursor restores the min-heap order (by head priority) below i.
func siftCursor(h []viewCursor, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) {
				ch, ce := h[c].head()
				lh, le := h[least].head()
				if priorityLess(ch, ce, lh, le) {
					least = c
				}
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// MergeView folds a view's kept elements and eviction bar into s; the
// view's parameters must be compatible (same dimensions, ε, k, seed and
// effective budget/cap), or an error is returned. The merged bar is the
// smaller of the two, and kept elements at or above it are evicted: their
// lists may be incomplete, and the prefix below them already carries a
// full budget. Stream accounting is untouched (see SetEdgesSeen).
func (s *Sketch) MergeView(v *View) error {
	if v == nil {
		return nil
	}
	if !s.params.sketchCompatible(v.params) {
		return fmt.Errorf("core: cannot merge incompatible sketches (params %+v vs %+v)",
			s.params, v.params)
	}
	for i, elem := range v.elems {
		s.absorbElem(v.hashes[i], elem, v.sets[v.off[i]:v.off[i+1]])
	}
	s.foldBar(v.evicted, v.barHash, v.barElem)
	return nil
}
