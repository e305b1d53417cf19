package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/bipartite"
)

// This file adds the persistence and duplication primitives: a sketch
// can be deep-copied (Clone), written to a compact binary snapshot
// (WriteTo) and reconstructed from one (ReadSketch).
// Restore relies on the same order-invariance as merging: the sketch is a
// deterministic function of its kept-edge set plus the eviction bar, so
// replaying the kept edges and folding the stored bar reproduces the
// sketch exactly (see merge.go for the argument).

// SketchMagic heads every serialized sketch; the trailing digit is the
// format version. Exported so containers that embed or sniff sketch
// blobs (the service's multi-namespace snapshot v2, covserved's restore
// path) can distinguish a bare v1 sketch file from their own framing
// without attempting a full decode.
const SketchMagic = "SKCH1"

// Clone returns a deep copy of the sketch. The copy shares only the
// (stateless, read-only) hash function with the original; mutating one
// never affects the other. (The serving path cuts a shard's state with
// the cheaper read-only Freeze; the weighted class bank still clones.)
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
		heap:       append([]int32(nil), s.heap...),
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
	}
	for k, v := range s.index {
		c.index[k] = v
	}
	return c
}

// SetEdgesSeen overrides the sketch's consumed-edge counter. Merged
// sketches count only the kept edges they replayed (see Merge), so a
// serving coordinator that persists a merged sketch uses this to carry
// the true ingested total across a snapshot/restore cycle.
func (s *Sketch) SetEdgesSeen(n int64) { s.edgesSeen = n }

// WriteTo serializes the sketch — parameters, eviction bar, stream
// accounting and every kept edge — in a compact little-endian binary
// format readable by ReadSketch: the bytes of its canonical view (see
// View.WriteTo). It only reads the sketch and implements io.WriterTo.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return s.Freeze().WriteTo(w)
}

// ReadSketch reconstructs a sketch written by WriteTo. The result is
// identical to the original: same kept edges, eviction bar, sampling
// probability and parameters (per-run drop counters are not preserved —
// they describe the stream, not the sketch).
func ReadSketch(r io.Reader) (*Sketch, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(SketchMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading sketch header: %w", err)
	}
	if string(magic) != SketchMagic {
		return nil, fmt.Errorf("core: bad sketch magic %q", magic)
	}
	get := func(v interface{}) error { return binary.Read(br, binary.LittleEndian, v) }
	var (
		numSets, numElems, k       int64
		epsBits, deltaBits, sfBits uint64
		edgeBudget, degCap         int64
		seed                       uint64
		hashFam                    uint8
		evicted                    uint8
		barHash                    uint64
		barElem                    uint32
		edgesSeen                  int64
		elements                   uint32
	)
	for _, v := range []interface{}{
		&numSets, &numElems, &k, &epsBits, &deltaBits,
		&edgeBudget, &degCap, &sfBits, &seed, &hashFam,
		&evicted, &barHash, &barElem, &edgesSeen, &elements,
	} {
		if err := get(v); err != nil {
			return nil, fmt.Errorf("core: reading sketch fields: %w", err)
		}
	}
	params := Params{
		NumSets:     int(numSets),
		NumElems:    int(numElems),
		K:           int(k),
		Eps:         math.Float64frombits(epsBits),
		DeltaPP:     math.Float64frombits(deltaBits),
		EdgeBudget:  int(edgeBudget),
		DegreeCap:   int(degCap),
		SpaceFactor: math.Float64frombits(sfBits),
		Seed:        seed,
		Hash:        HashFamily(hashFam),
	}
	s, err := NewSketch(params)
	if err != nil {
		return nil, fmt.Errorf("core: restoring sketch: %w", err)
	}
	for i := uint32(0); i < elements; i++ {
		var elem, nsets uint32
		if err := get(&elem); err != nil {
			return nil, fmt.Errorf("core: reading element %d: %w", i, err)
		}
		if err := get(&nsets); err != nil {
			return nil, fmt.Errorf("core: reading element %d: %w", i, err)
		}
		for j := uint32(0); j < nsets; j++ {
			var set uint32
			if err := get(&set); err != nil {
				return nil, fmt.Errorf("core: reading element %d: %w", i, err)
			}
			// absorb: replayed kept edges are not stream traffic, so the
			// per-run counters (dup/drop) stay zero without a reset.
			s.absorb(bipartite.Edge{Set: set, Elem: elem})
		}
	}
	s.foldBar(evicted != 0, barHash, barElem)
	s.edgesSeen = edgesSeen
	s.peakEdges = s.totalEdges
	return s, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
