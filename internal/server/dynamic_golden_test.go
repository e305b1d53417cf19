package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/l0"
)

// goldenDynamicConfig and goldenDynamicSchedule are the fixed instance
// behind testdata/dynamic_v1.l0dyn and dynamic_v2.l0dyn: 2 shards, the smallest cell count
// (96 per level), and an insert/delete schedule that leaves more live
// edges than level 0 decodes, so the blob holds overloaded levels, a
// decodable one and a cut that moved across the deletes.
func goldenDynamicConfig() Config {
	return Config{NumSets: 24, K: 4, Eps: 0.4, Seed: 17, NumElems: 4096, EdgeBudget: 48, Engine: ModeDynamic, Shards: 2}
}

func goldenDynamicSchedule() [][]bipartite.Op {
	rng := rand.New(rand.NewSource(20260117))
	seen := make(map[bipartite.Edge]bool)
	fresh := func(n int) []bipartite.Edge {
		out := make([]bipartite.Edge, 0, n)
		for len(out) < n {
			e := bipartite.Edge{Set: uint32(rng.Intn(24)), Elem: uint32(rng.Intn(4096))}
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		return out
	}
	a, b, c := fresh(120), fresh(90), fresh(60)
	return [][]bipartite.Op{
		bipartite.Inserts(a),
		append(bipartite.Inserts(b), bipartite.Deletes(a[:50])...),
		bipartite.Deletes(b[20:60]),
		append(bipartite.Inserts(c), bipartite.Deletes(a[50:70])...),
		// An edge inserted twice and deleted once stays live once.
		append(bipartite.Inserts(c[:10]), bipartite.Deletes(c[:10])...),
	}
}

// TestDynamicStateGoldenBytes pins the L0DYNS2 format: levels read off
// the sketch priority, row cells by multiply-shift.
// testdata/dynamic_v2.l0dyn is what the first writer of that format wrote
// for the schedule above (refreshed after every batch, 2 shards).
// Re-feeding the schedule must write those bytes, and decoding them — an
// older node's snapshot file or cluster blob — must restore the same level
// and answer.
func TestDynamicStateGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "dynamic_v2.l0dyn"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenDynamicConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, ops := range goldenDynamicSchedule() {
		if _, err := e.IngestOps(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if got := stateBytes(t, e); !bytes.Equal(got, golden) {
		t.Fatalf("the schedule no longer writes the golden bytes (%d bytes, golden %d)", len(got), len(golden))
	}
	q := Query{Algo: AlgoKCover, K: cfg.K, Refresh: true}
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.PStar >= 1 {
		t.Fatalf("golden instance decodes at level 0 (p* = %v); it should subsample", want.PStar)
	}

	restored, err := NewFromSnapshot(bytes.NewReader(golden), cfg)
	if err != nil {
		t.Fatalf("decoding the golden blob: %v", err)
	}
	defer restored.Close()
	got, err := restored.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "restored from the golden blob", got, want)
	if got.PStar != want.PStar {
		t.Fatalf("restored level p* %v != %v", got.PStar, want.PStar)
	}
	if !bytes.Equal(stateBytes(t, restored), golden) {
		t.Fatal("golden blob does not survive decode + restore + encode")
	}
	// The numbers the parent commit answered with, so a change that moved
	// both the writer and the reader the same way still fails.
	if s := fmt.Sprint(want.Sets, want.SketchCoverage, want.PStar, want.SnapshotEdges); s != goldenDynamicAnswer {
		t.Fatalf("answer %s, the golden blob's writer answered %s", s, goldenDynamicAnswer)
	}
}

// goldenDynamicAnswer is fmt.Sprint(Sets, SketchCoverage, PStar,
// SnapshotEdges) of the kcover K=4 answer the golden blob's writer gave.
const goldenDynamicAnswer = "[1 8 21 4] 15 0.25 400"

// TestDynamicV1StateIsRefusedByName: testdata/dynamic_v1.l0dyn is the
// schedule above as the L0DYNS1 writer left it. Its cells were placed by a
// level hash and row positions this version no longer computes, so no
// level of it could be peeled; every decoder refuses it with an error that
// names the version, and a node never restores it as something else.
func TestDynamicV1StateIsRefusedByName(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "dynamic_v1.l0dyn"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenDynamicConfig()
	mode, err := cfg.EngineMode()
	if err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name, magic string
		decode      func() error
	}{
		{"ReadState", "L0DYNS1", func() error {
			_, err := mode.ReadState(bytes.NewReader(blob))
			return err
		}},
		{"ReadRestore", "L0DYNS1", func() error {
			_, err := ReadRestore(cfg, bytes.NewReader(blob))
			return err
		}},
		{"l0.ReadSampler", "L0SAMP1", func() error {
			_, err := l0.ReadSampler(bytes.NewReader(blob[len(dynMagic)+20:]), cfg.DynamicParams())
			return err
		}},
	}
	for _, d := range decoders {
		err := d.decode()
		if err == nil {
			t.Fatalf("%s accepted a v1 dynamic state", d.name)
		}
		if !strings.Contains(err.Error(), d.magic) {
			t.Fatalf("%s: error %q does not name the version (%s)", d.name, err, d.magic)
		}
	}
}
