package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

// sketchEqual compares the observable state of two sketches: parameters,
// sampling probability, and the exact kept (set, elem) edge set.
func sketchEqual(t *testing.T, a, b *Sketch) {
	t.Helper()
	if a.Params() != b.Params() {
		t.Fatalf("params differ: %+v vs %+v", a.Params(), b.Params())
	}
	if a.PStar() != b.PStar() {
		t.Fatalf("pstar differs: %v vs %v", a.PStar(), b.PStar())
	}
	if a.Edges() != b.Edges() || a.Elements() != b.Elements() {
		t.Fatalf("size differs: %d/%d edges, %d/%d elements",
			a.Edges(), b.Edges(), a.Elements(), b.Elements())
	}
	edges := map[uint64]bool{}
	for elem, sets := range a.Freeze().Elems() {
		for _, set := range sets {
			edges[uint64(set)<<32|uint64(elem)] = true
		}
	}
	for elem, sets := range b.Freeze().Elems() {
		for _, set := range sets {
			if !edges[uint64(set)<<32|uint64(elem)] {
				t.Fatalf("edge (%d,%d) only in restored sketch", set, elem)
			}
			delete(edges, uint64(set)<<32|uint64(elem))
		}
	}
	if len(edges) != 0 {
		t.Fatalf("%d edges only in original sketch", len(edges))
	}
}

func buildTestSketch(t *testing.T, budget int, seed uint64) *Sketch {
	t.Helper()
	inst := workload.Zipf(40, 3000, 600, 0.9, 0.7, seed)
	sk := MustNewSketch(Params{
		NumSets: 40, NumElems: 3000, K: 5, Eps: 0.3,
		EdgeBudget: budget, Seed: seed,
	})
	sk.AddStream(stream.Shuffled(inst.G, seed+1))
	return sk
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	sk := buildTestSketch(t, 400, 7)
	cl := sk.Clone()
	sketchEqual(t, sk, cl)
	// Mutating the clone must not affect the original.
	before := sk.Edges()
	inst := workload.Uniform(40, 3000, 0.05, 99)
	cl.AddStream(stream.Shuffled(inst.G, 3))
	if sk.Edges() != before {
		t.Fatalf("clone mutation leaked into original: %d -> %d edges", before, sk.Edges())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, budget := range []int{0 /* paper formula: nothing evicted */, 400, 2000} {
		sk := buildTestSketch(t, budget, 11)
		var buf bytes.Buffer
		if _, err := sk.WriteTo(&buf); err != nil {
			t.Fatalf("budget %d: WriteTo: %v", budget, err)
		}
		got, err := ReadSketch(&buf)
		if err != nil {
			t.Fatalf("budget %d: ReadSketch: %v", budget, err)
		}
		sketchEqual(t, sk, got)
		if got.Stats().EdgesSeen != sk.Stats().EdgesSeen {
			t.Fatalf("budget %d: EdgesSeen %d vs %d",
				budget, got.Stats().EdgesSeen, sk.Stats().EdgesSeen)
		}
	}
}

func TestRestoredSketchKeepsStreaming(t *testing.T) {
	// A restored sketch must behave exactly like the original under more
	// stream: same evictions, same final state.
	inst := workload.Zipf(30, 2000, 500, 0.9, 0.7, 5)
	params := Params{NumSets: 30, NumElems: 2000, K: 4, Eps: 0.3, EdgeBudget: 300, Seed: 13}
	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	half := len(edges) / 2

	orig := MustNewSketch(params)
	orig.AddStream(stream.NewSlice(edges[:half]))

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}

	orig.AddStream(stream.NewSlice(edges[half:]))
	restored.AddStream(stream.NewSlice(edges[half:]))
	sketchEqual(t, orig, restored)
}

func TestReadSketchRejectsGarbage(t *testing.T) {
	if _, err := ReadSketch(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadSketch(strings.NewReader("NOTASKETCH")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid magic, truncated body.
	if _, err := ReadSketch(strings.NewReader(SketchMagic)); err == nil {
		t.Fatal("truncated sketch accepted")
	}
}

// TestReadRefusesNonzeroFamilyByte: SKCH1 keeps its hash family byte,
// always written as 0 (SplitMix64, the one element hash). A copy of the
// golden blob with any other value there is refused by both decoders, by
// an error that names the byte; the untouched golden still decodes.
func TestReadRefusesNonzeroFamilyByte(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "merged_v1.skch"))
	if err != nil {
		t.Fatal(err)
	}
	const at = len(SketchMagic) + 9*8 // after the nine parameter words
	if golden[at] != 0 {
		t.Fatalf("golden family byte is %d, want 0", golden[at])
	}
	if _, err := ReadView(bytes.NewReader(golden)); err != nil {
		t.Fatalf("golden blob: %v", err)
	}
	for _, family := range []byte{1, 0xff} {
		blob := bytes.Clone(golden)
		blob[at] = family
		want := fmt.Sprintf("hash family byte %d", family)
		if _, err := ReadView(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ReadView with family byte %d: err = %v, want one naming %q", family, err, want)
		}
		if _, err := ReadSketch(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ReadSketch with family byte %d: err = %v, want one naming %q", family, err, want)
		}
	}
}
