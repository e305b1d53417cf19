package l0

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
)

func testParams() SamplerParams {
	return SamplerParams{Levels: 12, Cells: 96, Seed: 42}.Normalize()
}

// genEdges builds n distinct edges over a small universe, deterministic
// in seed.
func genEdges(n int, seed int64) []bipartite.Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	edges := make([]bipartite.Edge, 0, n)
	for len(edges) < n {
		e := bipartite.Edge{Set: uint32(rng.Intn(64)), Elem: uint32(rng.Intn(1 << 16))}
		k := edgeKey(e.Set, e.Elem)
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, e)
	}
	return edges
}

func sortedEqual(a, b []bipartite.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[uint64]bool, len(a))
	for _, e := range a {
		am[edgeKey(e.Set, e.Elem)] = true
	}
	for _, e := range b {
		if !am[edgeKey(e.Set, e.Elem)] {
			return false
		}
	}
	return true
}

func serialize(t testing.TB, s *Sampler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSamplerExactBelowCapacity: a stream small enough for level 0
// recovers exactly, at sampling probability 1.
func TestSamplerExactBelowCapacity(t *testing.T) {
	s := NewSampler(testParams())
	edges := genEdges(30, 1)
	s.AddEdges(edges)
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Level != 0 {
		t.Fatalf("level %d, want level 0", rec.Level)
	}
	if !sortedEqual(rec.Edges, edges) {
		t.Fatalf("recovered %d edges != inserted %d", len(rec.Edges), len(edges))
	}
}

// TestSamplerDeleteExact: deleting a subset leaves exactly the rest.
func TestSamplerDeleteExact(t *testing.T) {
	s := NewSampler(testParams())
	edges := genEdges(40, 2)
	s.AddEdges(edges)
	s.Apply(bipartite.Deletes(edges[:25]))
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !sortedEqual(rec.Edges, edges[25:]) {
		t.Fatalf("recovered %d edges, want the %d undeleted ones", len(rec.Edges), len(edges)-25)
	}
}

// TestSamplerMultiplicity: an edge inserted m times needs m deletes to
// disappear, and recovery reports it once while any copies remain.
func TestSamplerMultiplicity(t *testing.T) {
	s := NewSampler(testParams())
	e := bipartite.Edge{Set: 3, Elem: 7}
	for i := 0; i < 3; i++ {
		s.AddEdges([]bipartite.Edge{e})
	}
	s.Apply(bipartite.Deletes([]bipartite.Edge{e, e}))
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edges) != 1 || rec.Edges[0] != e {
		t.Fatalf("recovered %v, want exactly one copy of %v", rec.Edges, e)
	}
	s.Apply(bipartite.Deletes([]bipartite.Edge{e}))
	rec, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edges) != 0 {
		t.Fatalf("recovered %v after the last delete, want empty", rec.Edges)
	}
}

// TestSamplerInsertAllDeleteAll: a fully cancelled stream leaves every
// cell zero and decodes at level 0 to the empty graph — the linchpin of
// the engine-level insert-all-delete-all acceptance.
func TestSamplerInsertAllDeleteAll(t *testing.T) {
	s := NewSampler(testParams())
	edges := genEdges(500, 3) // well past level-0 capacity while live
	s.Apply(bipartite.Inserts(edges))
	s.Apply(bipartite.Deletes(edges))
	if nnz := s.NonZeroCells(); nnz != 0 {
		t.Fatalf("%d non-zero cells after full cancellation", nnz)
	}
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edges) != 0 || rec.Level != 0 {
		t.Fatalf("recovered %d edges at level %d, want the empty level-0 decode", len(rec.Edges), rec.Level)
	}
}

// TestSamplerLinearity: merging per-shard samplers equals the sampler
// of the concatenated stream, byte for byte — and so does any
// reordering or rebatching of the ops.
func TestSamplerLinearity(t *testing.T) {
	edges := genEdges(200, 4)
	ops := append(bipartite.Inserts(edges), bipartite.Deletes(edges[:80])...)

	whole := NewSampler(testParams())
	whole.Apply(ops)

	a, b := NewSampler(testParams()), NewSampler(testParams())
	for i, op := range ops {
		if i%2 == 0 {
			a.Apply([]bipartite.Op{op})
		} else {
			b.Apply([]bipartite.Op{op})
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, a), serialize(t, whole)) {
		t.Fatal("merged shard samplers != sampler of the concatenated stream")
	}

	rev := NewSampler(testParams())
	for i := len(ops) - 1; i >= 0; i-- {
		rev.Apply(ops[i : i+1])
	}
	if !bytes.Equal(serialize(t, rev), serialize(t, whole)) {
		t.Fatal("op order changed the sampler state")
	}
}

// TestSamplerCloneIndependent: mutating a clone leaves the original
// untouched and vice versa.
func TestSamplerCloneIndependent(t *testing.T) {
	s := NewSampler(testParams())
	edges := genEdges(20, 5)
	s.AddEdges(edges)
	before := serialize(t, s)
	c := s.Clone()
	c.Apply(bipartite.Deletes(edges))
	if !bytes.Equal(serialize(t, s), before) {
		t.Fatal("deleting through a clone mutated the original")
	}
	if c.NonZeroCells() != 0 {
		t.Fatal("clone did not absorb the deletes")
	}
}

// TestSamplerMergeRejectsMismatch: samplers built with different
// parameters must refuse to merge instead of silently corrupting state.
func TestSamplerMergeRejectsMismatch(t *testing.T) {
	a := NewSampler(testParams())
	p := testParams()
	p.Seed++
	b := NewSampler(p)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across different seeds succeeded")
	}
}

// TestSamplerSerializeRoundTrip: WriteTo → ReadSampler is lossless (the
// restored sampler re-serializes byte-identically and recovers the same
// edges), and any single-byte corruption is a typed error.
func TestSamplerSerializeRoundTrip(t *testing.T) {
	s := NewSampler(testParams())
	edges := genEdges(60, 6)
	s.AddEdges(edges)
	s.Apply(bipartite.Deletes(edges[:10]))
	blob := serialize(t, s)

	r, err := ReadSampler(bytes.NewReader(blob), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, r), blob) {
		t.Fatal("restored sampler re-serializes differently")
	}
	rec, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !sortedEqual(rec.Edges, edges[10:]) {
		t.Fatal("restored sampler recovers a different edge set")
	}

	for _, pos := range []int{0, len(samplerMagic) + 3, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x01
		if _, err := ReadSampler(bytes.NewReader(bad), testParams()); !errors.Is(err, ErrCorruptSampler) {
			t.Fatalf("corruption at byte %d: err = %v, want ErrCorruptSampler", pos, err)
		}
	}
	if _, err := ReadSampler(bytes.NewReader(blob[:len(blob)-5]), testParams()); !errors.Is(err, ErrCorruptSampler) {
		t.Fatalf("truncated blob: err = %v, want ErrCorruptSampler", err)
	}
}

// TestSamplerLevelSubsampling: past level-0 capacity, recovery lands on
// a deeper level whose edges are exactly the incidence list of the
// elements that level samples — never a partial element.
func TestSamplerLevelSubsampling(t *testing.T) {
	p := SamplerParams{Levels: 16, Cells: 48, Seed: 9}.Normalize()
	s := NewSampler(p)
	edges := genEdges(3000, 7)
	s.AddEdges(edges)
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Level == 0 {
		t.Fatalf("3000 live edges decoded at level 0; expected subsampling")
	}
	// The recovered sample must contain an element's full incidence
	// list or none of it, and exactly the elements the level keeps.
	want := make(map[uint64]bool)
	for _, e := range edges {
		if s.elemLevel(e.Elem) >= rec.Level {
			want[edgeKey(e.Set, e.Elem)] = true
		}
	}
	if len(rec.Edges) != len(want) {
		t.Fatalf("recovered %d edges, level %d samples %d", len(rec.Edges), rec.Level, len(want))
	}
	for _, e := range rec.Edges {
		if !want[edgeKey(e.Set, e.Elem)] {
			t.Fatalf("recovered edge %v is not in the level-%d sample", e, rec.Level)
		}
	}
}

// TestSamplerLevelsFollowTheSketchPriority: an element's level is read off
// the sketch priority under the sampler's seed, so every level ℓ, decoded
// on its own, holds exactly the edges of the elements whose priority is
// below 2^(64−ℓ) — the priority prefix an H≤n sketch of that seed reads
// first — the last (capped) level included.
func TestSamplerLevelsFollowTheSketchPriority(t *testing.T) {
	for _, seed := range []uint64{0, 42, ^uint64(0)} {
		p := SamplerParams{Levels: 7, Cells: 3000, Seed: seed}.Normalize()
		prio := core.Params{Seed: seed}.Priority()
		below := func(elem uint32, level int) bool {
			return level == 0 || prio.Of(elem) < 1<<(64-level)
		}
		s := NewSampler(p)
		for elem := uint32(0); elem < 5000; elem++ {
			want := min(bits.LeadingZeros64(prio.Of(elem)|1), p.Levels-1)
			if got := s.elemLevel(elem); got != want {
				t.Fatalf("seed %d: elemLevel(%d) = %d, the priority says %d", seed, elem, got, want)
			}
		}
		edges := genEdges(2000, int64(seed))
		s.AddEdges(edges)
		var sc peelScratch
		for level := 0; level < p.Levels; level++ {
			if !s.peelLevel(level, &sc) {
				t.Fatalf("seed %d: level %d did not decode", seed, level)
			}
			got := make(map[uint64]bool, len(sc.keys))
			for _, k := range sc.keys {
				got[k] = true
			}
			want := 0
			for _, e := range edges {
				if !below(e.Elem, level) {
					continue
				}
				want++
				if !got[edgeKey(e.Set, e.Elem)] {
					t.Fatalf("seed %d level %d: edge %v of an element below 2^(64-%d) is missing", seed, level, e, level)
				}
			}
			if len(got) != want {
				t.Fatalf("seed %d level %d: decoded %d edges, the priority prefix has %d", seed, level, len(got), want)
			}
			if level == p.Levels-1 && want == 0 {
				t.Fatalf("seed %d: the last level is empty; the test checks nothing there", seed)
			}
		}
	}
}
