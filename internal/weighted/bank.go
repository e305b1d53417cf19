package weighted

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/stream"
)

// This file lifts the weighted extension from a one-shot batch function
// into a first-class sketch bank with the lifecycle of core.Sketch and
// core.View: a Bank is the mutable half — one H≤n sketch per non-empty
// geometric weight class, fed edge by edge — and a BankView is the
// immutable half, one canonical core.View per class. Everything
// downstream of ingest works on views: Freeze cuts one, MergeBankViews
// folds several class by class with core.MergeViews, Assemble lays the
// classes' element lists end to end as the scaled union instance the
// weighted greedy runs on, WriteTo and ReadBank move one to bytes and
// back. The only way back into a sketch is Bank.MergeView, which a
// restoring shard calls once. The serving engine (internal/server)
// shards a stream across N banks and merges their views at query time;
// because every per-class operation delegates to the core view — whose
// merge-composability is the paper's §1.3.2 argument — the merged view
// equals the view of the bank a single pass would have built, class by
// class, and the weighted service answers bit-identically to the
// one-shot KCover.

// BankMagic heads every serialized class bank; the trailing digit is
// the format version. The payload frames one core.Sketch v1 blob per
// class, so a bank file is a container around sketch files, exactly as
// the service's multi-namespace snapshot v2 is a container around v1.
const BankMagic = "WBNK1"

// shape is what a bank and every view cut from it are built over: the
// instance geometry, the normalized options (Eps defaulted to 0.5) and
// the element-weight oracle. Two shapes with equal geometry and options
// derive equal class parameters, so their class sketches merge.
type shape struct {
	numSets  int
	k        int
	opt      Options
	weightOf func(uint32) float64
}

// newShape validates the configuration and applies the KCover defaults,
// so that every params derivation — class creation, merge, restore
// validation — sees one canonical option set.
func newShape(numSets, k int, opt Options, weightOf func(uint32) float64) (shape, error) {
	if numSets <= 0 || k <= 0 {
		return shape{}, fmt.Errorf("weighted: bank needs positive numSets and k")
	}
	if weightOf == nil {
		return shape{}, fmt.Errorf("weighted: nil weight oracle")
	}
	if opt.Eps <= 0 || opt.Eps > 1 {
		opt.Eps = 0.5
	}
	sh := shape{numSets: numSets, k: k, opt: opt, weightOf: weightOf}
	// classParams only varies the seed, so validating one class covers
	// them all and lazy class creation cannot fail.
	if err := sh.classParams(0).Validate(); err != nil {
		return shape{}, fmt.Errorf("weighted: bank parameters: %w", err)
	}
	return sh, nil
}

// classParams derives the class sketch parameters: the KCover base
// parameters (per-class accuracy ε/12) with independent hashing per
// class, derived from the bank seed.
func (sh shape) classParams(ci int) core.Params {
	return core.Params{
		NumSets:     sh.numSets,
		NumElems:    sh.opt.NumElems,
		K:           sh.k,
		Eps:         sh.opt.Eps / 12,
		Seed:        sh.opt.Seed ^ (uint64(int64(ci))+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9,
		EdgeBudget:  sh.opt.EdgeBudget,
		SpaceFactor: sh.opt.SpaceFactor,
	}
}

// checkCompatible refuses a view built over another instance geometry
// or other options — the precondition for class-by-class merging (the
// core merge re-checks the derived sketch parameters too).
func (sh shape) checkCompatible(v *BankView) error {
	if sh.numSets != v.numSets || sh.k != v.k || sh.opt != v.opt {
		return fmt.Errorf("weighted: cannot merge incompatible banks (n=%d/%d k=%d/%d opts %+v vs %+v)",
			sh.numSets, v.numSets, sh.k, v.k, sh.opt, v.opt)
	}
	return nil
}

// Bank is a bank of per-weight-class H≤n sketches over one logical edge
// stream. Elements are bucketed by classIndex of their weight; each
// class keeps an independent sketch whose hashing is derived from the
// bank seed and the class index, so two banks built with the same
// options are class-compatible and their views merge. A Bank is not
// safe for concurrent use (like core.Sketch); shard the stream across
// banks and merge their Freeze cuts instead.
type Bank struct {
	shape
	classes map[int]*core.Sketch
	// edgesSeen counts every edge handed to Add/AddEdges, including
	// zero-weight edges that route to no class — it mirrors the
	// EdgesSeen stream accounting of an unweighted shard sketch so the
	// serving engine's applied-edge bookkeeping is mode-independent.
	edgesSeen int64
}

// NewBank returns an empty class bank for weighted k-cover instances
// with numSets sets, provisioned for solutions of size k. weightOf is
// the element-weight oracle (instance metadata, like the ids
// themselves); it must be deterministic, since classes are keyed by it
// on every path (ingest, merge, assembly).
func NewBank(numSets, k int, opt Options, weightOf func(uint32) float64) (*Bank, error) {
	sh, err := newShape(numSets, k, opt, weightOf)
	if err != nil {
		return nil, err
	}
	return &Bank{shape: sh, classes: make(map[int]*core.Sketch)}, nil
}

// sketchFor returns the class sketch, creating it on first use.
func (b *Bank) sketchFor(ci int) *core.Sketch {
	sk, ok := b.classes[ci]
	if !ok {
		sk = core.MustNewSketch(b.classParams(ci))
		b.classes[ci] = sk
	}
	return sk
}

// Add routes one stream edge to its weight-class sketch. Zero-weight
// elements are skipped (they never contribute coverage) but still
// counted as seen.
func (b *Bank) Add(e bipartite.Edge) {
	b.edgesSeen++
	w := b.weightOf(e.Elem)
	if w <= 0 {
		return
	}
	b.sketchFor(classIndex(w)).AddEdge(e)
}

// AddEdges routes a batch of stream edges to their class sketches. It
// is equivalent to calling Add on each edge in order (per-class sketch
// state is an order-invariant function of the absorbed edge set).
func (b *Bank) AddEdges(edges []bipartite.Edge) {
	for _, e := range edges {
		b.Add(e)
	}
}

// streamBatch is the buffer AddStream drains through. AddEdges is Add
// per edge, so the size only sets how often the buffer is refilled.
const streamBatch = 2048

// AddStream drains st into the bank and returns the number of edges
// consumed.
func (b *Bank) AddStream(st stream.Stream) int {
	// The callback never fails, so neither does Batches.
	n, _ := stream.Batches(st, streamBatch, func(edges []bipartite.Edge) error {
		b.AddEdges(edges)
		return nil
	})
	return int(n)
}

// Classes returns the number of non-empty weight classes sketched.
func (b *Bank) Classes() int { return len(b.classes) }

// Edges returns the total kept edges across the class sketches — the
// bank's resident size.
func (b *Bank) Edges() int { return b.Stats().EdgesKept }

// Elements returns the total kept elements across the class sketches.
// An element belongs to exactly one class (its weight is fixed), so
// this never double-counts.
func (b *Bank) Elements() int { return b.Stats().ElementsKept }

// EdgesSeen reports the number of edges the bank consumed from the
// stream (zero-weight edges included).
func (b *Bank) EdgesSeen() int64 { return b.edgesSeen }

// Stats aggregates the class sketches' accounting into one core.Stats.
// EdgesSeen is the bank-level stream counter (zero-weight edges
// included); PStar reports the smallest class sampling probability (1
// when no class has evicted).
func (b *Bank) Stats() core.Stats {
	st := core.Stats{EdgesSeen: b.edgesSeen, PStar: 1}
	for _, sk := range b.classes {
		addClassStats(&st, sk.Stats())
	}
	return st
}

// addClassStats folds one class's accounting into the bank total.
func addClassStats(st *core.Stats, s core.Stats) {
	st.EdgesKept += s.EdgesKept
	st.PeakEdges += s.PeakEdges
	st.ElementsKept += s.ElementsKept
	st.Budget += s.Budget
	st.DupEdges += s.DupEdges
	st.DropDegree += s.DropDegree
	st.DropHash += s.DropHash
	st.Bytes += s.Bytes
	st.DegreeCap = max(st.DegreeCap, s.DegreeCap)
	st.PStar = min(st.PStar, s.PStar)
}

// Freeze returns the bank's canonical view: every class sketch frozen
// once (core.Sketch.Freeze), classes ascending. It only reads the bank
// and the view shares no storage with it (the stateless weight oracle
// aside), so further ingest never shows through — how the serving path
// takes a consistent cut of a shard's weighted state.
func (b *Bank) Freeze() *BankView {
	v := &BankView{shape: b.shape, edgesSeen: b.edgesSeen, classes: make([]classView, 0, len(b.classes))}
	for ci, sk := range b.classes {
		v.classes = append(v.classes, classView{ci, sk.Freeze()})
	}
	v.sortClasses()
	return v
}

// MergeView folds a view's class views into b, class by class; classes
// missing locally are created. It is the one thaw of the weighted path:
// a restoring shard calls it once. As with core.Sketch.MergeView, b's
// bank-level stream accounting (EdgesSeen) is untouched — re-folded kept
// edges are not stream traffic. The per-class consumed counters,
// however, are summed: the bank is the coordinator of its class
// sketches, and carrying their totals keeps a restored bank
// byte-identical to the single-pass bank over the union stream.
func (b *Bank) MergeView(v *BankView) error {
	if v == nil {
		return nil
	}
	if err := b.checkCompatible(v); err != nil {
		return err
	}
	for _, c := range v.classes {
		sk := b.sketchFor(c.ci)
		seen := sk.Stats().EdgesSeen + c.view.Stats().EdgesSeen
		if err := sk.MergeView(c.view); err != nil {
			return err
		}
		sk.SetEdgesSeen(seen)
	}
	return nil
}

// Solve freezes the bank and solves on the view (BankView.Solve).
func (b *Bank) Solve(k int) (*Result, error) { return b.Freeze().Solve(k) }

// WriteTo serializes the bank: the bytes of its view (BankView.WriteTo).
// It only reads the bank and implements io.WriterTo.
func (b *Bank) WriteTo(w io.Writer) (int64, error) { return b.Freeze().WriteTo(w) }

// BankView is the immutable canonical form of a class bank: the
// consumed-edge total and, for every class the bank sketched, the
// class's canonical core.View, classes ascending — the order every
// deterministic consumer (assembly, persistence) walks. It is what a
// bank freezes into, what views merge into and what the serialized
// bytes decode into; it is never modified after construction and may be
// shared freely between goroutines.
type BankView struct {
	shape
	edgesSeen int64
	classes   []classView // ascending ci, no duplicates
}

type classView struct {
	ci   int
	view *core.View
}

func (v *BankView) sortClasses() {
	slices.SortFunc(v.classes, func(a, b classView) int { return cmp.Compare(a.ci, b.ci) })
}

// Classes returns the number of non-empty weight classes sketched.
func (v *BankView) Classes() int { return len(v.classes) }

// Edges returns the total kept edges across the class views.
func (v *BankView) Edges() int { return v.Stats().EdgesKept }

// Elements returns the total kept elements across the class views.
func (v *BankView) Elements() int { return v.Stats().ElementsKept }

// EdgesSeen reports the consumed-edge total the view was built with.
func (v *BankView) EdgesSeen() int64 { return v.edgesSeen }

// Stats aggregates the class views' accounting as Bank.Stats does the
// class sketches'.
func (v *BankView) Stats() core.Stats {
	st := core.Stats{EdgesSeen: v.edgesSeen, PStar: 1}
	for _, c := range v.classes {
		addClassStats(&st, c.view.Stats())
	}
	return st
}

// MergeBankViews folds views of banks built with this configuration
// into the view of the merged bank; edgesSeen is the consumed-edge total
// the result reports. Inputs are only read. Each class folds through
// core.MergeViews with the inputs' summed per-class consumed totals (a
// merge replays only kept edges, which are not stream traffic), so by
// per-class merge-composability the result equals, byte for byte, the
// view of the bank a single pass over the concatenated streams would
// build.
func MergeBankViews(numSets, k int, opt Options, weightOf func(uint32) float64, edgesSeen int64, views ...*BankView) (*BankView, error) {
	sh, err := newShape(numSets, k, opt, weightOf)
	if err != nil {
		return nil, err
	}
	perClass := make(map[int][]*core.View)
	for _, in := range views {
		if in == nil {
			continue
		}
		if err := sh.checkCompatible(in); err != nil {
			return nil, err
		}
		for _, c := range in.classes {
			perClass[c.ci] = append(perClass[c.ci], c.view)
		}
	}
	out := &BankView{shape: sh, edgesSeen: edgesSeen, classes: make([]classView, 0, len(perClass))}
	for ci, cvs := range perClass {
		seen := int64(0)
		for _, cv := range cvs {
			seen += cv.Stats().EdgesSeen
		}
		merged, err := core.MergeViews(sh.classParams(ci), seen, cvs...)
		if err != nil {
			return nil, err
		}
		out.classes = append(out.classes, classView{ci, merged})
	}
	out.sortClasses()
	return out, nil
}

// Assemble materializes the view as the scaled union instance: kept
// elements from every class (classes ascending, elements in hash order
// within a class — a canonical order, so equal views assemble equal
// instances bit for bit), with each element's weight scaled by
// 1/p*_class so weighted coverage on the union estimates weighted
// coverage on the input (Lemma 2.2 per class). The class views' sorted
// set lists are laid end to end as the element side of the union graph
// (bipartite.FromElemCSR), so nothing is spelled out as edges or sorted
// again. The second return value maps union element ids back to
// original ones. An element whose scaled weight is not finite (an oracle
// that answered NaN or +Inf, which the bank's w <= 0 check lets through)
// is an error naming it.
func (v *BankView) Assemble() (*Instance, []uint32, error) {
	st := v.Stats()
	var (
		off  = make([]int64, 1, st.ElementsKept+1)
		sets = make([]uint32, 0, st.EdgesKept)
		wts  = make([]float64, 0, st.ElementsKept)
		orig = make([]uint32, 0, st.ElementsKept)
	)
	for _, c := range v.classes {
		ps := c.view.PStar()
		if ps <= 0 {
			// A class whose bar collapsed to priority zero keeps (at most)
			// the single hash-zero element and estimates nothing: scaling by
			// 1/p* would produce infinite weights, so the class is excluded
			// from the union rather than poisoning the greedy.
			continue
		}
		scale := 1 / ps
		for elem, list := range c.view.Elems() {
			w := v.weightOf(elem)
			if sw := w * scale; math.IsNaN(sw) || math.IsInf(sw, 0) {
				return nil, nil, fmt.Errorf("weighted: element %d: weight %v scales to %v", elem, w, sw)
			}
			sets = append(sets, list...)
			off = append(off, int64(len(sets)))
			wts = append(wts, w*scale)
			orig = append(orig, elem)
		}
	}
	union, err := bipartite.FromElemCSR(v.numSets, off, sets)
	if err != nil {
		return nil, nil, fmt.Errorf("weighted: union sketch: %w", err)
	}
	return &Instance{G: union, W: wts}, orig, nil
}

// Solve assembles the scaled union and runs the weighted lazy greedy —
// the offline step of the streaming weighted k-cover. k may differ from
// the provisioned solution size; the approximation guarantee holds for
// k up to it.
func (v *BankView) Solve(k int) (*Result, error) {
	in, _, err := v.Assemble()
	if err != nil {
		return nil, err
	}
	res := MaxCover(*in, k)
	return &Result{
		Sets:              res.Sets,
		EstimatedCoverage: res.Covered,
		CoveredElems:      res.CoveredElems,
		Classes:           len(v.classes),
		EdgesStored:       v.Edges(),
	}, nil
}

// WriteTo serializes the view: the magic, the consumed-edge total, and
// one length-prefixed core.View v1 blob per class in ascending class
// order (a canonical encoding — equal views serialize to equal bytes).
// The bank options are NOT persisted; ReadBank takes them from the
// caller, exactly as the serving engine's Config travels separately
// from its sketch blob, and validates the frames against them. It
// implements io.WriterTo.
func (v *BankView) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	var out bytes.Buffer // its writes cannot fail
	hdr := le.AppendUint64([]byte(BankMagic), uint64(v.edgesSeen))
	out.Write(le.AppendUint32(hdr, uint32(len(v.classes))))
	for _, c := range v.classes {
		// Class index, then the frame length, patched in once the blob
		// behind it has been written.
		frame := le.AppendUint32(nil, uint32(int32(c.ci)))
		out.Write(le.AppendUint64(frame, 0))
		at := out.Len()
		n, _ := c.view.WriteTo(&out)
		le.PutUint64(out.Bytes()[at-8:], uint64(n))
	}
	return out.WriteTo(w)
}

// ReadBank decodes a bank written by WriteTo into the view its bytes
// spell out: core.ReadView per class frame, no sketch built. numSets, k
// and opt must repeat the writing bank's configuration (they determine
// the per-class sketch parameters, which are validated frame by frame);
// weightOf is the same element-weight oracle. The result re-serializes
// to the same bytes and assembles — and answers — bit-identically. A
// frame's announced length is checked against the bytes left before
// anything is allocated for it; frames may come in any class order,
// but a class may come only once.
func ReadBank(r io.Reader, numSets, k int, opt Options, weightOf func(uint32) float64) (*BankView, error) {
	sh, err := newShape(numSets, k, opt, weightOf)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("weighted: reading bank: %w", err)
	}
	const header = len(BankMagic) + 8 + 4
	if len(data) < header {
		return nil, fmt.Errorf("weighted: reading bank header: %w", io.ErrUnexpectedEOF)
	}
	if magic := data[:len(BankMagic)]; string(magic) != BankMagic {
		return nil, fmt.Errorf("weighted: bad bank magic %q (want %q)", magic, BankMagic)
	}
	le := binary.LittleEndian
	v := &BankView{shape: sh, edgesSeen: int64(le.Uint64(data[len(BankMagic):]))}
	if v.edgesSeen < 0 {
		return nil, fmt.Errorf("weighted: negative consumed-edge total %d", v.edgesSeen)
	}
	count, rest := le.Uint32(data[header-4:]), data[header:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 12 {
			return nil, fmt.Errorf("weighted: reading class frame %d: %w", i, io.ErrUnexpectedEOF)
		}
		ci, size := int(int32(le.Uint32(rest))), le.Uint64(rest[4:])
		rest = rest[12:]
		if size > uint64(len(rest)) {
			return nil, fmt.Errorf("weighted: class %d frame of %d bytes, %d left: %w", ci, size, len(rest), io.ErrUnexpectedEOF)
		}
		cv, err := core.ReadView(bytes.NewReader(rest[:size]))
		if err != nil {
			return nil, fmt.Errorf("weighted: decoding class %d sketch: %w", ci, err)
		}
		if cv.Params() != sh.classParams(ci) {
			return nil, fmt.Errorf("weighted: class %d sketch parameters do not match the bank options", ci)
		}
		v.classes = append(v.classes, classView{ci, cv})
		rest = rest[size:]
	}
	v.sortClasses()
	for i := 1; i < len(v.classes); i++ {
		if v.classes[i].ci == v.classes[i-1].ci {
			return nil, fmt.Errorf("weighted: duplicate class %d frame", v.classes[i].ci)
		}
	}
	return v, nil
}
