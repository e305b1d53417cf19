package l0

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"slices"
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

// floorOps is a valid insert/delete mix over elements of every priority.
func floorOps(n int, seed int64) []bipartite.Op {
	edges := genEdges(n, seed)
	ops := bipartite.Inserts(edges)
	return append(ops, bipartite.Deletes(edges[:n/3])...)
}

// TestSamplerFloorKeepsTheLevelsAboveIt: a sampler raised to floor f is
// the floor-0 sampler with the levels below f cut off — whether the ops
// arrived before or after the raise, and however the ops of elements above
// FloorBar(f) were split off: they touch nothing it holds. It decodes the
// first level from f on that the floor-0 sampler decodes, serializes only
// the levels it holds, and round-trips with its floor.
func TestSamplerFloorKeepsTheLevelsAboveIt(t *testing.T) {
	p := SamplerParams{Levels: 12, Cells: 96, Seed: 5}.Normalize()
	ops := floorOps(600, 8)
	full := NewSampler(p)
	full.Apply(ops)
	for _, f := range []int{1, 2, 4, p.Levels - 1} {
		late := full.Clone()
		late.RaiseFloor(f)
		if late.Floor() != f || len(late.cells) != (p.Levels-f)*p.Cells {
			t.Fatalf("floor %d: raised to %d holding %d cells", f, late.Floor(), len(late.cells))
		}
		// Raised first, then fed only the ops below the floor's bar.
		early := NewSampler(p)
		early.RaiseFloor(f)
		for _, op := range ops {
			if early.prio.Of(op.Edge.Elem) <= FloorBar(f) {
				early.Apply([]bipartite.Op{op})
			}
		}
		// Raised first, fed everything.
		all := NewSampler(p)
		all.RaiseFloor(f)
		all.Apply(ops)
		for name, s := range map[string]*Sampler{"raised first, fed below the bar": early, "raised first, fed all": all} {
			if !bytes.Equal(serialize(t, s), serialize(t, late)) {
				t.Fatalf("floor %d, %s: differs from the floor-0 sampler raised afterwards", f, name)
			}
		}
		// The floor-0 sampler's first level from f on that peels.
		var sc peelScratch
		level := f
		for !full.peelLevel(level, &sc) {
			level++
		}
		slices.Sort(sc.keys)
		got, err := late.Recover()
		if err != nil || got.Level != level || len(got.Edges) != len(slices.Compact(sc.keys)) {
			t.Fatalf("floor %d: decoded %d edges at level %d (%v), the floor-0 sampler peels %d at %d", f, len(got.Edges), got.Level, err, len(sc.keys), level)
		}
		blob := serialize(t, late)
		back, err := ReadSampler(bytes.NewReader(blob), p)
		if err != nil {
			t.Fatal(err)
		}
		if back.Floor() != f || !slices.Equal(back.cells, late.cells) {
			t.Fatalf("floor %d: round trip gave floor %d", f, back.Floor())
		}
		if len(blob) > len(serialize(t, full)) {
			t.Fatalf("floor %d: %d bytes, more than the floor-0 sampler's", f, len(blob))
		}
	}
}

// TestSamplerMergeTakesTheLargerFloor: merging samplers of floors f1 < f2,
// either way round, is the merge of both raised to f2; CopyTo refuses a
// target of another floor.
func TestSamplerMergeTakesTheLargerFloor(t *testing.T) {
	p := SamplerParams{Levels: 12, Cells: 96, Seed: 6}.Normalize()
	a, b := NewSampler(p), NewSampler(p)
	a.Apply(floorOps(300, 1))
	b.Apply(floorOps(300, 2))
	want := a.Clone()
	if err := want.Merge(b); err != nil {
		t.Fatal(err)
	}
	want.RaiseFloor(3)
	low, high := a.Clone(), b.Clone()
	low.RaiseFloor(1)
	high.RaiseFloor(3)
	for name, pair := range map[string][2]*Sampler{"low into high": {high, low}, "high into low": {low, high}} {
		into := pair[0].Clone()
		if err := into.Merge(pair[1]); err != nil {
			t.Fatal(err)
		}
		if into.Floor() != 3 || !bytes.Equal(serialize(t, into), serialize(t, want)) {
			t.Fatalf("%s: floor %d, or cells differ from the merge raised to 3", name, into.Floor())
		}
	}
	if err := high.CopyTo(low.Clone()); err == nil {
		t.Fatal("CopyTo into a sampler of another floor succeeded")
	}
	dst := NewSampler(p)
	dst.RaiseFloor(3)
	if err := high.CopyTo(dst); err != nil || !bytes.Equal(serialize(t, dst), serialize(t, high)) {
		t.Fatalf("CopyTo at equal floors: %v", err)
	}
}

// TestSamplerReadsV2AsFloor0: an L0SAMP2 blob — the v3 layout without the
// floor field — decodes at floor 0 to the same cells.
func TestSamplerReadsV2AsFloor0(t *testing.T) {
	p := testParams()
	s := NewSampler(p)
	s.Apply(floorOps(120, 3))
	v3 := serialize(t, s)
	body := append([]byte(nil), v3[len(samplerMagic):len(v3)-4]...)
	body = append(body[:16], body[20:]...) // drop the floor field
	v2 := append([]byte(samplerMagicV2), body...)
	v2 = binary.LittleEndian.AppendUint32(v2, crc32.Checksum(body, crcTable))
	got, err := ReadSampler(bytes.NewReader(v2), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Floor() != 0 || !slices.Equal(got.cells, s.cells) {
		t.Fatal("a v2 blob decoded to other cells or another floor")
	}
}
