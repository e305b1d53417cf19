package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/bipartite"
)

// This file adds the persistence and duplication primitives: a sketch
// can be deep-copied (Clone), written to a compact binary snapshot
// (WriteTo) and read back, as the view the bytes spell out (ReadView) or
// thawed into a sketch (ReadSketch). One slice parser serves both. The
// written bytes are a view's arrays in canonical order, so decoding them
// is validation plus copying; replaying kept edges into a sketch — sound
// by the same order-invariance as merging, see merge.go — is only the
// fallback for well-formed blobs that are not in that order.

// SketchMagic heads every serialized sketch; the trailing digit is the
// format version. Exported so containers that embed or sniff sketch
// blobs (the service's multi-namespace snapshot v2, covserved's restore
// path) can distinguish a bare v1 sketch file from their own framing
// without attempting a full decode.
const SketchMagic = "SKCH1"

// Clone returns a deep copy of the sketch. The copy shares only the
// (stateless, read-only) hash function with the original; mutating one
// never affects the other. (Every serving path cuts a shard's state with
// the cheaper read-only Freeze instead.)
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{
		params:     s.params,
		budget:     s.budget,
		degCap:     s.degCap,
		slack:      s.slack,
		hash:       s.hash,
		index:      make(map[uint32]int32, len(s.index)),
		slots:      make([]slot, len(s.slots)),
		free:       append([]int32(nil), s.free...),
		heap:       append([]heapEntry(nil), s.heap...),
		dirty:      append([]int32(nil), s.dirty...), // the slot flags are copied below
		totalEdges: s.totalEdges,
		evicted:    s.evicted,
		barHash:    s.barHash,
		barElem:    s.barElem,
		peakEdges:  s.peakEdges,
		edgesSeen:  s.edgesSeen,
		dupEdges:   s.dupEdges,
		dropDegree: s.dropDegree,
		dropHash:   s.dropHash,
	}
	for i := range s.slots {
		c.slots[i] = s.slots[i]
		c.slots[i].sets = append([]uint32(nil), s.slots[i].sets...)
		c.setCap += int64(cap(c.slots[i].sets)) // the copies are sized afresh
	}
	for k, v := range s.index {
		c.index[k] = v
	}
	return c
}

// SetEdgesSeen overrides the sketch's consumed-edge counter. Folding a
// view counts none of its edges (see MergeView), so a caller that builds a
// sketch from a summary rather than from the stream uses this to carry the
// true ingested total.
func (s *Sketch) SetEdgesSeen(n int64) { s.edgesSeen = n }

// WriteTo serializes the sketch — parameters, eviction bar, stream
// accounting and every kept edge — in a compact little-endian binary
// format readable by ReadSketch: the bytes of its canonical view (see
// View.WriteTo). It only reads the sketch and implements io.WriterTo.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return s.Freeze().WriteTo(w)
}

// sketchHeaderLen is the fixed part of a v1 blob: magic, nine 64-bit
// parameter words, hash family and eviction flag bytes, the bar (hash,
// elem), the consumed-edge total and the element count. The family byte
// is always 0 (SplitMix64, the one element hash); a blob with any other
// value is refused.
const sketchHeaderLen = len(SketchMagic) + 9*8 + 2 + 8 + 4 + 8 + 4

// readBlob drains r. A reader that knows its remaining length (every
// in-memory caller: bytes.Reader, bytes.Buffer, strings.Reader) costs one
// allocation of that size; MinRead spare bytes let ReadFrom see EOF
// without growing.
func readBlob(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseView decodes v1 bytes into a view's flat arrays in one pass, in
// blob order, and reports whether that order is already the canonical
// form View promises: elements strictly ascending in (hash, elem), each
// set list strictly ascending with 1..D entries, every element below the
// bar, the Definition 2.1 minimal prefix (dropping the last element falls
// below the budget), and no trailing bytes. When it is not, the arrays
// are still a faithful transcript of the blob for ReadView to normalize.
// Every allocation is sized from len(data), never from the header's
// element count. A set id outside [0, NumSets) fails the decode either
// way: no sketch of these parameters can hold it, and nothing downstream
// could materialize it.
func parseView(data []byte) (v *View, canonical bool, err error) {
	if len(data) < len(SketchMagic) {
		return nil, false, fmt.Errorf("core: reading sketch header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(SketchMagic)]) != SketchMagic {
		return nil, false, fmt.Errorf("core: bad sketch magic %q", data[:len(SketchMagic)])
	}
	if len(data) < sketchHeaderLen {
		return nil, false, fmt.Errorf("core: reading sketch fields: %w", io.ErrUnexpectedEOF)
	}
	le := binary.LittleEndian
	var words [9]uint64
	pos := len(SketchMagic)
	for i := range words {
		words[i] = le.Uint64(data[pos:])
		pos += 8
	}
	params := Params{
		NumSets:     int(int64(words[0])),
		NumElems:    int(int64(words[1])),
		K:           int(int64(words[2])),
		Eps:         math.Float64frombits(words[3]),
		DeltaPP:     math.Float64frombits(words[4]),
		EdgeBudget:  int(int64(words[5])),
		DegreeCap:   int(int64(words[6])),
		SpaceFactor: math.Float64frombits(words[7]),
		Seed:        words[8],
	}
	if data[pos] != 0 {
		return nil, false, fmt.Errorf("core: hash family byte %d at offset %d: SKCH1 hashes with SplitMix64, family 0", data[pos], pos)
	}
	if err := params.Validate(); err != nil {
		return nil, false, fmt.Errorf("core: restoring sketch: %w", err)
	}
	// After the family byte: evicted u8, barHash u64, barElem u32,
	// edgesSeen i64, element count u32.
	tail := data[pos+1 : sketchHeaderLen]
	v = &View{
		params:    params,
		evicted:   tail[0] != 0,
		edgesSeen: int64(le.Uint64(tail[13:])),
	}
	if v.edgesSeen < 0 {
		return nil, false, fmt.Errorf("core: restoring sketch: negative consumed-edge total %d", v.edgesSeen)
	}
	if v.evicted { // a bar nobody hit is written as zeros, whatever the blob held
		v.barHash, v.barElem = le.Uint64(tail[1:]), le.Uint32(tail[9:])
	}
	n := int(le.Uint32(tail[21:]))
	body := data[sketchHeaderLen:]
	// Each element spends at least its id and its list length.
	if n > len(body)/8 {
		return nil, false, fmt.Errorf("core: reading element %d: %w", len(body)/8, io.ErrUnexpectedEOF)
	}
	v.hashes = make([]uint64, n)
	v.elems = make([]uint32, n)
	v.off = make([]int64, n+1)
	v.sets = make([]uint32, 0, (len(body)-8*n)/4)

	hash := params.Priority()
	numSets, degCap := uint64(params.NumSets), params.EffectiveDegreeCap()
	canonical = true
	for i := 0; i < n; i++ {
		if len(body) < 8 {
			return nil, false, fmt.Errorf("core: reading element %d: %w", i, io.ErrUnexpectedEOF)
		}
		elem, deg := le.Uint32(body), int(le.Uint32(body[4:]))
		body = body[8:]
		if deg > len(body)/4 {
			return nil, false, fmt.Errorf("core: reading element %d: %w", i, io.ErrUnexpectedEOF)
		}
		h := hash.Of(elem)
		v.hashes[i], v.elems[i] = h, elem
		if deg == 0 || deg > degCap ||
			i > 0 && !priorityLess(v.hashes[i-1], v.elems[i-1], h, elem) ||
			v.evicted && !priorityLess(h, elem, v.barHash, v.barElem) {
			canonical = false
		}
		for j := 0; j < deg; j++ {
			set := le.Uint32(body[4*j:])
			if uint64(set) >= numSets {
				return nil, false, fmt.Errorf("core: element %d: set id %d out of range [0,%d)", elem, set, params.NumSets)
			}
			if j > 0 && set <= v.sets[len(v.sets)-1] {
				canonical = false
			}
			v.sets = append(v.sets, set)
		}
		body = body[4*deg:]
		v.off[i+1] = int64(len(v.sets))
	}
	if len(body) > 0 {
		canonical = false
	}
	if n > 1 && int(v.off[n-1]) >= params.EffectiveEdgeBudget() {
		canonical = false // the last element is not needed to reach the budget
	}
	return v, canonical, nil
}

// ReadView decodes a sketch written by WriteTo straight into its
// canonical view. The v1 bytes are the view's arrays in order, so a
// canonical blob — anything View.WriteTo or Sketch.WriteTo wrote — is
// validated and adopted in the one parsing pass, with no sketch built.
// Any other well-formed blob (a legacy writer's unordered elements or
// set lists, a hand-edited bar, trailing bytes) is normalized: its edges
// are replayed into a fresh sketch and its bar folded, which by the
// order-invariance argument of merge.go reproduces the sketch that holds
// exactly that edge set, and the result is frozen.
func ReadView(r io.Reader) (*View, error) {
	data, err := readBlob(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading sketch: %w", err)
	}
	v, canonical, err := parseView(data)
	if err != nil {
		return nil, err
	}
	if canonical { // a canonical blob's lists are within the cap
		v.capped = true
		return v, nil
	}
	s, err := NewSketch(v.params)
	if err != nil {
		return nil, fmt.Errorf("core: restoring sketch: %w", err)
	}
	for i, elem := range v.elems {
		for _, set := range v.sets[v.off[i]:v.off[i+1]] {
			// absorb: replayed kept edges are not stream traffic, so the
			// per-run counters (dup/drop) stay zero without a reset.
			s.absorb(bipartite.Edge{Set: set, Elem: elem})
		}
	}
	s.foldBar(v.evicted, v.barHash, v.barElem)
	s.edgesSeen = v.edgesSeen
	return s.Freeze(), nil
}

// ReadSketch reconstructs a sketch written by WriteTo: ReadView thawed
// into a mutable sketch. The result is identical to the original: same
// kept edges, eviction bar, sampling probability and parameters (per-run
// drop counters are not preserved — they describe the stream, not the
// sketch).
func ReadSketch(r io.Reader) (*Sketch, error) {
	v, err := ReadView(r)
	if err != nil {
		return nil, err
	}
	s, err := NewSketch(v.params)
	if err != nil {
		return nil, fmt.Errorf("core: restoring sketch: %w", err)
	}
	if err := s.MergeView(v); err != nil {
		return nil, err
	}
	s.edgesSeen = v.edgesSeen
	s.peakEdges = s.totalEdges
	return s, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
