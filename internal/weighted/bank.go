package weighted

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/stream"
)

// This file lifts the weighted extension from a one-shot batch function
// into a first-class sketch bank with the same lifecycle verbs as
// core.Sketch: a Bank owns one H≤n sketch per non-empty geometric
// weight class and supports cloning, merging, binary persistence and a
// canonical assembly into the scaled union instance the weighted greedy
// runs on. The serving engine (internal/server) shards a stream across
// N banks and merges them at query time; because every per-class
// operation delegates to the core sketch — whose merge-composability is
// the paper's §1.3.2 argument — the merged bank equals the bank a
// single pass would have built, class by class, and the weighted
// service answers bit-identically to the one-shot KCover.

// BankMagic heads every serialized class bank; the trailing digit is
// the format version. The payload frames one core.Sketch v1 blob per
// class, so a bank file is a container around sketch files, exactly as
// the service's multi-namespace snapshot v2 is a container around v1.
const BankMagic = "WBNK1"

// maxBankClassBytes bounds one class frame while decoding, so a corrupt
// length field fails with an error instead of a huge allocation.
const maxBankClassBytes = 1 << 30

// Bank is a bank of per-weight-class H≤n sketches over one logical edge
// stream. Elements are bucketed by classIndex of their weight; each
// class keeps an independent sketch whose hashing is derived from the
// bank seed and the class index, so two banks built with the same
// options are class-compatible and mergeable. A Bank is not safe for
// concurrent use (like core.Sketch); shard the stream across banks and
// Merge instead.
type Bank struct {
	numSets  int
	k        int
	opt      Options // normalized: Eps defaulted to 0.5
	weightOf func(uint32) float64
	classes  map[int]*core.Sketch
	// edgesSeen counts every edge handed to Add/AddEdges, including
	// zero-weight edges that route to no class — it mirrors the
	// EdgesSeen stream accounting of an unweighted shard sketch so the
	// serving engine's applied-edge bookkeeping is mode-independent.
	edgesSeen int64
}

// normalizeOptions applies the KCover defaults so that every params
// derivation — bank construction, class creation, restore validation —
// sees one canonical option set.
func normalizeOptions(opt Options) Options {
	if opt.Eps <= 0 || opt.Eps > 1 {
		opt.Eps = 0.5
	}
	return opt
}

// NewBank returns an empty class bank for weighted k-cover instances
// with numSets sets, provisioned for solutions of size k. weightOf is
// the element-weight oracle (instance metadata, like the ids
// themselves); it must be deterministic, since classes are keyed by it
// on every path (ingest, merge, assembly).
func NewBank(numSets, k int, opt Options, weightOf func(uint32) float64) (*Bank, error) {
	if numSets <= 0 || k <= 0 {
		return nil, fmt.Errorf("weighted: bank needs positive numSets and k")
	}
	if weightOf == nil {
		return nil, fmt.Errorf("weighted: nil weight oracle")
	}
	b := &Bank{
		numSets:  numSets,
		k:        k,
		opt:      normalizeOptions(opt),
		weightOf: weightOf,
		classes:  make(map[int]*core.Sketch),
	}
	// Validate the derived parameters once; classParams only varies the
	// seed afterwards, so lazy class creation cannot fail.
	if err := b.classParams(0).Validate(); err != nil {
		return nil, fmt.Errorf("weighted: bank parameters: %w", err)
	}
	return b, nil
}

// classParams derives the class sketch parameters: the KCover base
// parameters (per-class accuracy ε/12) with independent hashing per
// class, derived from the bank seed.
func (b *Bank) classParams(ci int) core.Params {
	return core.Params{
		NumSets:     b.numSets,
		NumElems:    b.opt.NumElems,
		K:           b.k,
		Eps:         b.opt.Eps / 12,
		Seed:        b.opt.Seed ^ (uint64(int64(ci))+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9,
		EdgeBudget:  b.opt.EdgeBudget,
		SpaceFactor: b.opt.SpaceFactor,
	}
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

// AddStream drains st into the bank and returns the number of edges
// consumed.
func (b *Bank) AddStream(st stream.Stream) int {
	n := 0
	for {
		e, ok := st.Next()
		if !ok {
			return n
		}
		b.Add(e)
		n++
	}
}

// Classes returns the number of non-empty weight classes sketched.
func (b *Bank) Classes() int { return len(b.classes) }

// Edges returns the total kept edges across the class sketches — the
// bank's resident size.
func (b *Bank) Edges() int {
	total := 0
	for _, sk := range b.classes {
		total += sk.Edges()
	}
	return total
}

// Elements returns the total kept elements across the class sketches.
// An element belongs to exactly one class (its weight is fixed), so
// this never double-counts.
func (b *Bank) Elements() int {
	total := 0
	for _, sk := range b.classes {
		total += sk.Elements()
	}
	return total
}

// EdgesSeen reports the number of edges the bank consumed from the
// stream (zero-weight edges included).
func (b *Bank) EdgesSeen() int64 { return b.edgesSeen }

// SetEdgesSeen overrides the consumed-edge counter, mirroring
// core.Sketch.SetEdgesSeen: a merged bank only replays kept edges, so a
// serving coordinator persists the true ingested total through this.
func (b *Bank) SetEdgesSeen(n int64) { b.edgesSeen = n }

// Stats aggregates the class sketches' accounting into one core.Stats.
// EdgesSeen is the bank-level stream counter (zero-weight edges
// included); PStar reports the smallest class sampling probability (1
// when no class has evicted).
func (b *Bank) Stats() core.Stats {
	st := core.Stats{EdgesSeen: b.edgesSeen, PStar: 1}
	for _, sk := range b.classes {
		s := sk.Stats()
		st.EdgesKept += s.EdgesKept
		st.PeakEdges += s.PeakEdges
		st.ElementsKept += s.ElementsKept
		st.Budget += s.Budget
		st.DupEdges += s.DupEdges
		st.DropDegree += s.DropDegree
		st.DropHash += s.DropHash
		st.Bytes += s.Bytes
		if s.DegreeCap > st.DegreeCap {
			st.DegreeCap = s.DegreeCap
		}
		if s.PStar < st.PStar {
			st.PStar = s.PStar
		}
	}
	return st
}

// Clone returns a deep copy of the bank (sharing only the stateless
// weight oracle). Cloning is how the serving path takes a consistent
// cut of a shard's weighted state without stalling its ingest loop.
func (b *Bank) Clone() *Bank {
	c := &Bank{
		numSets:   b.numSets,
		k:         b.k,
		opt:       b.opt,
		weightOf:  b.weightOf,
		classes:   make(map[int]*core.Sketch, len(b.classes)),
		edgesSeen: b.edgesSeen,
	}
	for ci, sk := range b.classes {
		c.classes[ci] = sk.Clone()
	}
	return c
}

// compatible reports whether two banks were built over the same
// instance geometry and options — the precondition for class-by-class
// merging (core.Merge re-checks the derived sketch parameters too).
func (b *Bank) compatible(other *Bank) bool {
	return b.numSets == other.numSets && b.k == other.k && b.opt == other.opt
}

// Merge folds other's class sketches into b, class by class; classes
// missing locally are created. other is not modified. As with
// core.Sketch.Merge, b's bank-level stream accounting (EdgesSeen) is
// untouched — re-folded kept edges are not stream traffic; coordinators
// that need totals sum the inputs' EdgesSeen or use SetEdgesSeen. The
// per-class consumed counters, however, are summed: the bank is the
// coordinator of its class sketches, and carrying their totals keeps a
// merged bank byte-identical to the single-pass bank over the union
// stream (pinned by TestBankMergeEqualsSingle).
func (b *Bank) Merge(other *Bank) error {
	if other == nil {
		return nil
	}
	if !b.compatible(other) {
		return fmt.Errorf("weighted: cannot merge incompatible banks (n=%d/%d k=%d/%d opts %+v vs %+v)",
			b.numSets, other.numSets, b.k, other.k, b.opt, other.opt)
	}
	for _, ci := range other.sortedClasses() {
		sk := b.sketchFor(ci)
		seen := sk.Stats().EdgesSeen + other.classes[ci].Stats().EdgesSeen
		if err := sk.Merge(other.classes[ci]); err != nil {
			return err
		}
		sk.SetEdgesSeen(seen)
	}
	return nil
}

// MergeBanks builds a bank holding the merge of every input (inputs are
// never modified). Each class folds through core.MergeAll. By per-class
// merge-composability the result equals the bank a single pass over
// the concatenated streams would build.
func MergeBanks(numSets, k int, opt Options, weightOf func(uint32) float64, banks ...*Bank) (*Bank, error) {
	out, err := NewBank(numSets, k, opt, weightOf)
	if err != nil {
		return nil, err
	}
	perClass := make(map[int][]*core.Sketch)
	for _, in := range banks {
		if in == nil {
			continue
		}
		if !out.compatible(in) {
			return nil, fmt.Errorf("weighted: cannot merge incompatible banks (opts %+v vs %+v)", out.opt, in.opt)
		}
		out.edgesSeen += in.edgesSeen
		for ci, sk := range in.classes {
			perClass[ci] = append(perClass[ci], sk)
		}
	}
	for ci, sketches := range perClass {
		merged, err := core.MergeAll(out.classParams(ci), sketches...)
		if err != nil {
			return nil, err
		}
		// Per-class consumed totals survive the fold (merging replays only
		// kept edges, which are not stream traffic), so the merged bank is
		// byte-identical to the single-pass bank over the whole stream.
		seen := int64(0)
		for _, sk := range sketches {
			seen += sk.Stats().EdgesSeen
		}
		merged.SetEdgesSeen(seen)
		out.classes[ci] = merged
	}
	return out, nil
}

// sortedClasses returns the class indices ascending — the canonical
// iteration order every deterministic consumer (assembly, persistence,
// merging) uses.
func (b *Bank) sortedClasses() []int {
	cis := make([]int, 0, len(b.classes))
	for ci := range b.classes {
		cis = append(cis, ci)
	}
	sort.Ints(cis)
	return cis
}

// Assemble materializes the bank as the scaled union instance: kept
// elements from every class (classes ascending, elements in hash order
// within a class — a canonical order, so equal banks assemble equal
// instances bit for bit), with each element's weight scaled by
// 1/p*_class so weighted coverage on the union estimates weighted
// coverage on the input (Lemma 2.2 per class). The second return value
// maps union element ids back to original ones.
func (b *Bank) Assemble() (*Instance, []uint32, error) {
	var (
		edges  []bipartite.Edge
		wts    []float64
		orig   []uint32
		nextID uint32
	)
	for _, ci := range b.sortedClasses() {
		sk := b.classes[ci]
		ps := sk.PStar()
		if ps <= 0 {
			// A class whose bar collapsed to priority zero keeps (at most)
			// the single hash-zero element and estimates nothing: scaling by
			// 1/p* would produce infinite weights, so the class is excluded
			// from the union rather than poisoning the greedy.
			continue
		}
		scale := 1 / ps
		g, ids := sk.Graph()
		for newID, origID := range ids {
			for _, set := range g.Elem(newID) {
				edges = append(edges, bipartite.Edge{Set: set, Elem: nextID})
			}
			wts = append(wts, b.weightOf(origID)*scale)
			orig = append(orig, origID)
			nextID++
		}
	}
	union, err := bipartite.FromEdges(b.numSets, int(nextID), edges)
	if err != nil {
		return nil, nil, fmt.Errorf("weighted: union sketch: %w", err)
	}
	return &Instance{G: union, W: wts}, orig, nil
}

// Solve assembles the scaled union and runs the weighted lazy greedy —
// the offline step of the streaming weighted k-cover. k may differ from
// the provisioned solution size; the approximation guarantee holds for
// k up to it.
func (b *Bank) Solve(k int) (*Result, error) {
	in, _, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	res := MaxCover(*in, k)
	return &Result{
		Sets:              res.Sets,
		EstimatedCoverage: res.Covered,
		CoveredElems:      res.CoveredElems,
		Classes:           len(b.classes),
		EdgesStored:       b.Edges(),
	}, nil
}

// WriteTo serializes the bank: the magic, the stream counter, and one
// length-prefixed core.Sketch v1 blob per class in ascending class
// order (a canonical encoding — equal banks serialize to equal bytes).
// The bank options are NOT persisted; ReadBank takes them from the
// caller, exactly as the serving engine's Config travels separately
// from its sketch blob, and validates the frames against them. It
// implements io.WriterTo.
func (b *Bank) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	if _, err := bw.WriteString(BankMagic); err != nil {
		return n, err
	}
	n += int64(len(BankMagic))
	put := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := put(b.edgesSeen); err != nil {
		return n, err
	}
	if err := put(uint32(len(b.classes))); err != nil {
		return n, err
	}
	var blob bytes.Buffer
	for _, ci := range b.sortedClasses() {
		blob.Reset()
		if _, err := b.classes[ci].WriteTo(&blob); err != nil {
			return n, err
		}
		if err := put(int32(ci)); err != nil {
			return n, err
		}
		if err := put(uint64(blob.Len())); err != nil {
			return n, err
		}
		nn, err := bw.Write(blob.Bytes())
		n += int64(nn)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadBank reconstructs a bank written by WriteTo. numSets, k and opt
// must repeat the writing bank's configuration (they determine the
// per-class sketch parameters, which are validated frame by frame);
// weightOf is the same element-weight oracle. The result is identical
// to the original: same classes, same kept edges and eviction bars, so
// it assembles — and answers — bit-identically.
func ReadBank(r io.Reader, numSets, k int, opt Options, weightOf func(uint32) float64) (*Bank, error) {
	b, err := NewBank(numSets, k, opt, weightOf)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(BankMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("weighted: reading bank header: %w", err)
	}
	if string(magic) != BankMagic {
		return nil, fmt.Errorf("weighted: bad bank magic %q (want %q)", magic, BankMagic)
	}
	var (
		edgesSeen int64
		count     uint32
	)
	if err := binary.Read(br, binary.LittleEndian, &edgesSeen); err != nil {
		return nil, fmt.Errorf("weighted: reading bank counter: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("weighted: reading bank class count: %w", err)
	}
	for i := uint32(0); i < count; i++ {
		var (
			ci      int32
			blobLen uint64
		)
		if err := binary.Read(br, binary.LittleEndian, &ci); err != nil {
			return nil, fmt.Errorf("weighted: reading class %d index: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &blobLen); err != nil {
			return nil, fmt.Errorf("weighted: reading class %d size: %w", ci, err)
		}
		if blobLen > maxBankClassBytes {
			return nil, fmt.Errorf("weighted: class %d frame of %d bytes exceeds limit", ci, blobLen)
		}
		if _, dup := b.classes[int(ci)]; dup {
			return nil, fmt.Errorf("weighted: duplicate class %d frame", ci)
		}
		// The sketch decoder drains its reader; hand it an exact in-memory
		// frame so it cannot consume the next class's bytes.
		var blob bytes.Buffer
		if _, err := io.CopyN(&blob, br, int64(blobLen)); err != nil {
			return nil, fmt.Errorf("weighted: reading class %d sketch: %w", ci, err)
		}
		sk, err := core.ReadSketch(&blob)
		if err != nil {
			return nil, fmt.Errorf("weighted: decoding class %d sketch: %w", ci, err)
		}
		if sk.Params() != b.classParams(int(ci)) {
			return nil, fmt.Errorf("weighted: class %d sketch parameters do not match the bank options", ci)
		}
		b.classes[int(ci)] = sk
	}
	b.edgesSeen = edgesSeen
	return b, nil
}
