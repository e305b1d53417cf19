package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/workload"
)

// referenceReadView is the decoder ReadView replaced, kept as the
// reference the new one is held to: a reflective binary.Read per field,
// every edge replayed into a fresh sketch, the stored bar folded, the
// sketch frozen. It shares nothing with parseView. The one intended
// difference is written in: a set id outside [0, NumSets) is refused.
func referenceReadView(data []byte) (*View, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	magic := make([]byte, len(SketchMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != SketchMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	get := func(v interface{}) error { return binary.Read(br, binary.LittleEndian, v) }
	var (
		numSets, numElems, k       int64
		epsBits, deltaBits, sfBits uint64
		edgeBudget, degCap         int64
		seed                       uint64
		hashFam, evicted           uint8
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
			return nil, err
		}
	}
	if hashFam != 0 {
		return nil, fmt.Errorf("hash family %d", hashFam)
	}
	s, err := NewSketch(Params{
		NumSets:     int(numSets),
		NumElems:    int(numElems),
		K:           int(k),
		Eps:         math.Float64frombits(epsBits),
		DeltaPP:     math.Float64frombits(deltaBits),
		EdgeBudget:  int(edgeBudget),
		DegreeCap:   int(degCap),
		SpaceFactor: math.Float64frombits(sfBits),
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < elements; i++ {
		var elem, nsets uint32
		if err := get(&elem); err != nil {
			return nil, err
		}
		if err := get(&nsets); err != nil {
			return nil, err
		}
		for j := uint32(0); j < nsets; j++ {
			var set uint32
			if err := get(&set); err != nil {
				return nil, err
			}
			if int64(set) >= numSets {
				return nil, fmt.Errorf("set id %d out of range", set)
			}
			s.absorb(bipartite.Edge{Set: set, Elem: elem})
		}
	}
	s.foldBar(evicted != 0, barHash, barElem)
	s.edgesSeen = edgesSeen
	return s.Freeze(), nil
}

// viewBytes serializes a view without a testing.T (the fuzz target
// compares inside f.Fuzz).
func viewBytes(v *View) []byte {
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// viewsDiffer compares everything a view holds: the flat arrays, the bar
// and p*, and — through the re-serialized bytes, which compare floats by
// their bits — the parameters and the consumed-edge total.
func viewsDiffer(got, want *View) string {
	switch {
	case !slices.Equal(got.hashes, want.hashes):
		return "hashes differ"
	case !slices.Equal(got.elems, want.elems):
		return "elems differ"
	case !slices.Equal(got.off, want.off):
		return "offsets differ"
	case !slices.Equal(got.sets, want.sets):
		return "sets differ"
	case got.evicted != want.evicted || got.barHash != want.barHash || got.barElem != want.barElem:
		return fmt.Sprintf("bar (%v, %#x, %d), want (%v, %#x, %d)",
			got.evicted, got.barHash, got.barElem, want.evicted, want.barHash, want.barElem)
	case got.PStar() != want.PStar():
		return fmt.Sprintf("p* %v, want %v", got.PStar(), want.PStar())
	case got.edgesSeen != want.edgesSeen:
		return fmt.Sprintf("edgesSeen %d, want %d", got.edgesSeen, want.edgesSeen)
	case !bytes.Equal(viewBytes(got), viewBytes(want)):
		return "re-serialized bytes differ"
	}
	return ""
}

// TestReadViewEqualsReadSketchFreeze holds the one-pass decoder to the
// decoder it replaced on everything the writer emits: every generator,
// an evicting and a never-evicting budget. The
// writer's bytes must take the canonical path, come back as the view
// that was written and re-serialize to themselves.
func TestReadViewEqualsReadSketchFreeze(t *testing.T) {
	generators := []workload.Instance{
		workload.Uniform(30, 400, 0.06, 1),
		workload.Zipf(30, 600, 200, 0.9, 0.7, 2),
		workload.PlantedKCover(30, 400, 4, 0.8, 10, 3),
		workload.PlantedSetCover(30, 400, 5, 2, 4),
		workload.BlogTopics(30, 300, 25, 5),
		workload.LargeSets(12, 800, 0.3, 6),
		workload.Clustered(30, 400, 5, 7),
	}
	for gi, inst := range generators {
		g := inst.G
		for _, budget := range []int{g.NumEdges() / 5, 4 * g.NumEdges()} {
			name := fmt.Sprintf("%s/budget=%d", inst.Name, budget)
			params := smallParams(g.NumSets(), 3, budget, uint64(17*gi+3))
			sk := MustNewSketch(params)
			sk.AddStream(stream.Shuffled(g, uint64(gi)))
			if evicting := budget < g.NumEdges(); evicting != sk.evicted {
				t.Fatalf("%s: evicted = %v", name, sk.evicted)
			}
			written := sk.Freeze()
			blob := stateBytes(t, written)

			if _, canonical, err := parseView(blob); err != nil || !canonical {
				t.Fatalf("%s: writer output parsed as canonical=%v, err=%v", name, canonical, err)
			}
			got, err := ReadView(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s: ReadView: %v", name, err)
			}
			want, err := referenceReadView(blob)
			if err != nil {
				t.Fatalf("%s: reference decoder: %v", name, err)
			}
			if d := viewsDiffer(got, want); d != "" {
				t.Fatalf("%s: ReadView vs reference: %s", name, d)
			}
			if d := viewsDiffer(got, written); d != "" {
				t.Fatalf("%s: ReadView vs the written view: %s", name, d)
			}
			if got.Params() != params {
				t.Fatalf("%s: params %+v, want %+v", name, got.Params(), params)
			}
			if !bytes.Equal(stateBytes(t, got), blob) {
				t.Fatalf("%s: decoded view does not re-serialize to its bytes", name)
			}
			thawed, err := ReadSketch(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s: ReadSketch: %v", name, err)
			}
			viewMatchesSketch(t, got, thawed)
			if st := thawed.Stats(); st.PeakEdges != st.EdgesKept || st.EdgesSeen != sk.Stats().EdgesSeen {
				t.Fatalf("%s: thawed accounting %+v", name, st)
			}
		}
	}
}

// TestReadViewRejectsEveryStrictPrefix cuts a valid blob at every byte:
// each strict prefix is an error, never a panic, and a header that
// promises 2³²−1 elements over a short body allocates in proportion to
// the bytes present, not to the promise.
func TestReadViewRejectsEveryStrictPrefix(t *testing.T) {
	blob := stateBytes(t, buildTestSketch(t, 150, 5))
	for cut := 0; cut < len(blob); cut++ {
		if _, err := ReadView(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(blob))
		}
	}
	if _, err := ReadView(bytes.NewReader(blob)); err != nil {
		t.Fatalf("whole blob: %v", err)
	}

	lying := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(lying[sketchHeaderLen-4:], math.MaxUint32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadView(bytes.NewReader(lying))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("blob promising 2^32-1 elements accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(lying)+1<<16) {
		t.Fatalf("decoding a %d-byte lying blob allocated %d bytes", len(lying), grew)
	}
	// The same promise with list lengths to match, one byte short.
	binary.LittleEndian.PutUint32(lying[sketchHeaderLen+4:], math.MaxUint32)
	if _, err := ReadView(bytes.NewReader(lying)); err == nil {
		t.Fatal("blob promising a 2^32-1 entry set list accepted")
	}
}

// blobEntry is one element of a hand-assembled blob.
type blobEntry struct {
	elem uint32
	sets []uint32
}

// assembleBlob writes entries in the order given under like's header —
// View.WriteTo walks whatever arrays it is handed, canonical or not.
func assembleBlob(t *testing.T, like *View, entries []blobEntry) []byte {
	t.Helper()
	v := &View{
		params: like.params, evicted: like.evicted, barHash: like.barHash, barElem: like.barElem,
		edgesSeen: like.edgesSeen, off: []int64{0},
	}
	for _, en := range entries {
		v.elems = append(v.elems, en.elem)
		v.sets = append(v.sets, en.sets...)
		v.off = append(v.off, int64(len(v.sets)))
	}
	return stateBytes(t, v)
}

func entriesOf(v *View) []blobEntry {
	out := make([]blobEntry, len(v.elems))
	for i, el := range v.elems {
		out[i] = blobEntry{el, slices.Clone(v.sets[v.off[i]:v.off[i+1]])}
	}
	return out
}

// TestReadViewNormalizesNonCanonicalBlobs breaks each canonical-form
// condition in turn. Every such blob is still well-formed, must be seen
// as non-canonical, and must decode to exactly what the replaced decoder
// made of it.
func TestReadViewNormalizesNonCanonicalBlobs(t *testing.T) {
	evicting := buildTestSketch(t, 400, 11).Freeze()
	if !evicting.evicted || len(evicting.elems) < 4 {
		t.Fatalf("test needs an evicting sketch with a few elements, got %+v", evicting.Stats())
	}
	ample := buildTestSketch(t, 1<<20, 11).Freeze()
	if ample.evicted {
		t.Fatal("test needs a never-evicting sketch")
	}
	// The first element hashing above the evicting sketch's bar.
	hash := evicting.params.Priority().Of
	above := uint32(0)
	for !priorityLess(evicting.barHash, evicting.barElem, hash(above), above) {
		above++
	}
	multi := slices.IndexFunc(entriesOf(evicting), func(en blobEntry) bool { return len(en.sets) > 1 })
	if multi < 0 {
		t.Fatal("test needs an element in more than one set")
	}

	cases := map[string]func() []byte{
		"swapped elements": func() []byte {
			en := entriesOf(evicting)
			en[0], en[2] = en[2], en[0]
			return assembleBlob(t, evicting, en)
		},
		"descending sets": func() []byte {
			en := entriesOf(evicting)
			slices.Reverse(en[multi].sets)
			return assembleBlob(t, evicting, en)
		},
		"repeated set id": func() []byte {
			en := entriesOf(evicting)
			en[multi].sets = append(en[multi].sets, en[multi].sets[len(en[multi].sets)-1])
			return assembleBlob(t, evicting, en)
		},
		"duplicate element": func() []byte {
			en := entriesOf(evicting)
			first, rest := en[multi].sets[:1], en[multi].sets[1:]
			en[multi].sets = first
			en = slices.Insert(en, multi+1, blobEntry{en[multi].elem, rest})
			return assembleBlob(t, evicting, en)
		},
		"empty list": func() []byte {
			en := entriesOf(evicting)
			en[1].sets = nil
			return assembleBlob(t, evicting, en)
		},
		"above-bar element": func() []byte {
			return assembleBlob(t, evicting, append(entriesOf(evicting), blobEntry{above, []uint32{0, 1}}))
		},
		"over-cap list": func() []byte {
			tight := *ample
			tight.params.DegreeCap = 1
			return assembleBlob(t, &tight, entriesOf(ample))
		},
		"non-minimal prefix": func() []byte {
			tight := *ample
			tight.params.EdgeBudget = len(ample.sets) / 2
			return assembleBlob(t, &tight, entriesOf(ample))
		},
		"trailing bytes": func() []byte {
			return append(stateBytes(t, evicting), 0xde, 0xad)
		},
	}
	for name, build := range cases {
		blob := build()
		if _, canonical, err := parseView(blob); err != nil || canonical {
			t.Fatalf("%s: parsed as canonical=%v, err=%v; want non-canonical", name, canonical, err)
		}
		got, err := ReadView(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: ReadView: %v", name, err)
		}
		want, err := referenceReadView(blob)
		if err != nil {
			t.Fatalf("%s: reference decoder: %v", name, err)
		}
		if d := viewsDiffer(got, want); d != "" {
			t.Fatalf("%s: ReadView vs reference: %s", name, d)
		}
		if _, canonical, err := parseView(viewBytes(got)); err != nil || !canonical {
			t.Fatalf("%s: normalized view does not re-serialize canonically (canonical=%v, err=%v)", name, canonical, err)
		}
	}

	// Not a broken condition: under a clear eviction flag the bar words
	// are don't-cares. The blob is canonical and the view reads them as
	// zeros, like the sketch the replaced decoder built.
	loose := *ample
	loose.barHash, loose.barElem = math.MaxUint64, 7
	blob := assembleBlob(t, &loose, entriesOf(ample))
	got, canonical, err := parseView(blob)
	if err != nil || !canonical {
		t.Fatalf("stray bar words under a clear flag: canonical=%v, err=%v", canonical, err)
	}
	want, err := referenceReadView(blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := viewsDiffer(got, want); d != "" {
		t.Fatalf("stray bar words under a clear flag: parseView vs reference: %s", d)
	}
}

// TestReadViewRejectsOutOfRangeSetID: a set id no sketch of the blob's
// own parameters can hold is refused on both paths — SKCH1 carries no
// checksum, so this is the decoder's only line against a flipped bit in
// a set word, and nothing downstream could materialize the state.
func TestReadViewRejectsOutOfRangeSetID(t *testing.T) {
	v := buildTestSketch(t, 400, 11).Freeze()
	en := entriesOf(v)
	last := len(en) - 1
	en[last].sets[len(en[last].sets)-1] = uint32(v.params.NumSets) // still ascending: canonical path
	if _, err := ReadView(bytes.NewReader(assembleBlob(t, v, en))); err == nil {
		t.Fatal("canonical blob with set id = NumSets accepted")
	}
	en[0], en[1] = en[1], en[0] // and on the normalizing path
	if _, err := ReadView(bytes.NewReader(assembleBlob(t, v, en))); err == nil {
		t.Fatal("unordered blob with set id = NumSets accepted")
	}
	if _, err := ReadSketch(bytes.NewReader(assembleBlob(t, v, en))); err == nil {
		t.Fatal("ReadSketch accepted a set id = NumSets")
	}
}

// legacyBlob rewrites a sketch's bytes the way a writer that dumped its
// heap would have: elements in reverse order, set lists descending.
func legacyBlob(sk *Sketch) []byte {
	v := sk.Freeze()
	out := append([]byte(nil), viewBytes(v)[:sketchHeaderLen]...)
	for i := len(v.elems) - 1; i >= 0; i-- {
		sets := v.sets[v.off[i]:v.off[i+1]]
		out = binary.LittleEndian.AppendUint32(out, v.elems[i])
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sets)))
		for j := len(sets) - 1; j >= 0; j-- {
			out = binary.LittleEndian.AppendUint32(out, sets[j])
		}
	}
	return out
}

// FuzzReadView: on arbitrary bytes the one-pass decoder and the decoder
// it replaced both fail, or both succeed with equal views.
func FuzzReadView(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "merged_v1.skch"))
	if err != nil {
		f.Fatal(err)
	}
	inst := workload.Zipf(40, 3000, 600, 0.9, 0.7, 3)
	sk := MustNewSketch(Params{NumSets: 40, NumElems: 3000, K: 5, Eps: 0.3, EdgeBudget: 120, Seed: 3})
	sk.AddStream(stream.Shuffled(inst.G, 4))
	small := viewBytes(sk.Freeze())
	legacy := legacyBlob(sk)
	for _, seed := range [][]byte{
		golden, small, legacy,
		golden[:len(golden)/2], golden[:sketchHeaderLen], golden[:sketchHeaderLen-1],
		small[:len(small)-1], legacy[:len(legacy)-3], append(slices.Clone(small), 0),
		[]byte(SketchMagic), nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadView(bytes.NewReader(data))
		want, wantErr := referenceReadView(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ReadView error %v, reference decoder error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if d := viewsDiffer(got, want); d != "" {
			t.Fatalf("ReadView vs reference: %s", d)
		}
	})
}

// TestReadViewMatchesReferenceUnderMutation is the fuzz property on a
// denser neighbourhood than byte-level mutation reaches: whole words of
// valid blobs (element ids, list lengths, set ids, header fields) are
// overwritten with values that land near the canonical-form boundaries.
func TestReadViewMatchesReferenceUnderMutation(t *testing.T) {
	rng := hashing.NewRNG(99)
	var accepted, normalized int
	for _, budget := range []int{60, 150, 1 << 20} {
		blob := stateBytes(t, buildTestSketch(t, budget, 21))
		words := (len(blob) - len(SketchMagic)) / 4
		for iter := 0; iter < 1500; iter++ {
			mut := slices.Clone(blob)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				at := len(SketchMagic) + 4*rng.Intn(words)
				if at+4 > len(mut) {
					continue
				}
				var w uint32
				switch rng.Intn(4) {
				case 0:
					w = uint32(rng.Intn(4))
				case 1:
					w = uint32(rng.Intn(64))
				case 2: // some other word of the blob
					w = binary.LittleEndian.Uint32(blob[len(SketchMagic)+4*rng.Intn(words-1):])
				default:
					w = uint32(rng.Uint64())
				}
				binary.LittleEndian.PutUint32(mut[at:], w)
			}
			got, gotErr := ReadView(bytes.NewReader(mut))
			want, wantErr := referenceReadView(mut)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("budget %d iter %d: ReadView error %v, reference decoder error %v", budget, iter, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			accepted++
			if _, canonical, _ := parseView(mut); !canonical {
				normalized++
			}
			if d := viewsDiffer(got, want); d != "" {
				t.Fatalf("budget %d iter %d: ReadView vs reference: %s", budget, iter, d)
			}
		}
	}
	t.Logf("%d accepted, %d normalized", accepted, normalized)
	if accepted < 300 || normalized < 100 || normalized == accepted {
		t.Fatalf("mutations too one-sided to mean anything: %d accepted, %d of them normalized", accepted, normalized)
	}
}

// BenchmarkReadView decodes the bytes of the sketch BenchmarkFreeze
// freezes: the cost of one cluster pull's or one restore's decode.
func BenchmarkReadView(b *testing.B) {
	s := benchShardSketch(b)
	blob := viewBytes(s.Freeze())
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ReadView(bytes.NewReader(blob))
		if err != nil || len(v.elems) != s.Elements() {
			b.Fatal("bad view", err)
		}
	}
}
