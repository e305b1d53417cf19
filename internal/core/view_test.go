package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/workload"
)

// stateBytes serializes a sketch or a view, checking the reported length.
func stateBytes(t *testing.T, w io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// referenceGraph materializes a sketch the way Sketch.Graph did before
// views existed — enumerate the kept edges, order the elements by an
// independent sort on (hash, elem), hand bipartite.FromEdges the edge
// list — so the view path is checked against code that shares nothing
// with it.
func referenceGraph(t *testing.T, s *Sketch) (*bipartite.Graph, []uint32) {
	t.Helper()
	lists := map[uint32][]uint32{}
	for elem, si := range s.index {
		lists[elem] = s.slots[si].sets
	}
	ids := make([]uint32, 0, len(lists))
	for el := range lists {
		ids = append(ids, el)
	}
	sort.Slice(ids, func(i, j int) bool {
		return priorityLess(s.hash.Of(ids[i]), ids[i], s.hash.Of(ids[j]), ids[j])
	})
	var edges []bipartite.Edge
	for newID, el := range ids {
		for _, set := range lists[el] {
			edges = append(edges, bipartite.Edge{Set: set, Elem: uint32(newID)})
		}
	}
	g, err := bipartite.FromEdges(s.params.NumSets, len(ids), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func sameGraph(t *testing.T, got, want *bipartite.Graph, gotIDs, wantIDs []uint32) {
	t.Helper()
	if got.NumSets() != want.NumSets() || got.NumElems() != want.NumElems() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape (%d sets, %d elems, %d edges), want (%d, %d, %d)",
			got.NumSets(), got.NumElems(), got.NumEdges(), want.NumSets(), want.NumElems(), want.NumEdges())
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("%d element ids, want %d", len(gotIDs), len(wantIDs))
	}
	for e := range wantIDs {
		if gotIDs[e] != wantIDs[e] {
			t.Fatalf("graph element %d is original element %d, want %d", e, gotIDs[e], wantIDs[e])
		}
		a, b := got.Elem(e), want.Elem(e)
		if len(a) != len(b) {
			t.Fatalf("element %d: degree %d, want %d", e, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("element %d: set list %v, want %v", e, a, b)
			}
		}
	}
	for s := 0; s < want.NumSets(); s++ {
		a, b := got.Set(s), want.Set(s)
		if len(a) != len(b) {
			t.Fatalf("set %d: %d elements, want %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("set %d: element list differs at %d", s, i)
			}
		}
	}
}

// viewMatchesSketch compares a view with a sketch: same elements in
// priority order, same set lists, same bar and p*.
func viewMatchesSketch(t *testing.T, v *View, s *Sketch) {
	t.Helper()
	if len(v.elems) != s.Elements() || len(v.sets) != s.Edges() {
		t.Fatalf("view holds (%d elements, %d edges), sketch (%d, %d)",
			len(v.elems), len(v.sets), s.Elements(), s.Edges())
	}
	if v.evicted != s.evicted || v.barHash != s.barHash || v.barElem != s.barElem {
		t.Fatalf("view bar (%v, %#x, %d), sketch (%v, %#x, %d)",
			v.evicted, v.barHash, v.barElem, s.evicted, s.barHash, s.barElem)
	}
	if v.PStar() != s.PStar() {
		t.Fatalf("view p* %v, sketch %v", v.PStar(), s.PStar())
	}
	if len(v.off) != len(v.elems)+1 || len(v.hashes) != len(v.elems) || v.off[0] != 0 || v.off[len(v.elems)] != int64(len(v.sets)) {
		t.Fatalf("view arrays inconsistent: %d hashes, %d elems, %d offsets, %d sets", len(v.hashes), len(v.elems), len(v.off), len(v.sets))
	}
	for i, el := range v.elems {
		if v.hashes[i] != s.hash.Of(el) {
			t.Fatalf("element %d stored with hash %#x, want %#x", el, v.hashes[i], s.hash.Of(el))
		}
		if i > 0 && !priorityLess(v.hashes[i-1], v.elems[i-1], v.hashes[i], el) {
			t.Fatalf("view elements out of priority order at %d", i)
		}
		got, want := v.sets[v.off[i]:v.off[i+1]], s.SetsOf(el)
		if len(got) != len(want) {
			t.Fatalf("element %d: view degree %d, sketch %d", el, len(got), len(want))
		}
		for j := range got {
			if j > 0 && got[j-1] >= got[j] {
				t.Fatalf("element %d: view set list not strictly ascending: %v", el, got)
			}
			if got[j] != want[j] {
				t.Fatalf("element %d: view sets %v, sketch %v", el, got, want)
			}
		}
	}
}

// TestMergeViewsEqualsSequentialMerge is the soundness property of the
// refresh path: MergeViews over frozen shard sketches equals the
// sequential MergeView left fold — same elements, set lists, bar and
// p*, the same bytes and the same graph — across every workload
// generator, shard counts, binding and non-binding caps, disjoint and
// overlapping inputs, evicting and never-evicting budgets.
func TestMergeViewsEqualsSequentialMerge(t *testing.T) {
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
		edges := g.Edges(nil)
		for _, shards := range []int{1, 2, 3, 5, 8} {
			for _, capBinds := range []bool{false, true} {
				for _, overlap := range []bool{false, true} {
					for _, budget := range []int{g.NumEdges() / 5, 4 * g.NumEdges()} {
						params := smallParams(g.NumSets(), 3, budget, uint64(31*gi+shards))
						params.DegreeCap = g.MaxElemDegree() + 1
						if capBinds {
							params.DegreeCap = 2
						}
						locals := make([]*Sketch, shards)
						for i := range locals {
							locals[i] = MustNewSketch(params)
						}
						if overlap {
							// Every input sees a random ~60% of the edges.
							for i, sk := range locals {
								h := hashing.NewHasher(uint64(i)*77 + 5)
								for _, e := range edges {
									if h.Hash(e.Set*131+e.Elem)%10 < 6 {
										sk.AddEdge(e)
									}
								}
							}
						} else {
							for i, sh := range splitEdges(g, shards, uint64(shards)+9) {
								locals[i].AddEdges(sh)
							}
						}

						want := MustNewSketch(params)
						views := make([]*View, shards)
						for i, sk := range locals {
							if err := want.MergeView(sk.Freeze()); err != nil {
								t.Fatal(err)
							}
							views[i] = sk.Freeze()
						}
						got, err := MergeViews(params, 0, views...)
						if err != nil {
							t.Fatal(err)
						}
						if budget > g.NumEdges() && got.evicted {
							t.Fatalf("%s: ample budget %d evicted", inst.Name, budget)
						}
						viewMatchesSketch(t, got, want)
						if !bytes.Equal(stateBytes(t, got), stateBytes(t, want)) {
							t.Fatalf("%s: merged view bytes differ from the sequential fold's", inst.Name)
						}
						gg, gids, err := got.Graph()
						if err != nil {
							t.Fatal(err)
						}
						wg, wids := referenceGraph(t, want)
						sameGraph(t, gg, wg, gids, wids)
					}
				}
			}
		}
	}
}

// TestFreezeReadsOnly pins Freeze's contract with the shard that calls
// it between batches: the sketch's accounting and everything it does
// with later edges are as if Freeze had never run, and the view does
// not change when the sketch ingests more (no aliasing of slot storage).
func TestFreezeReadsOnly(t *testing.T) {
	inst := workload.Zipf(30, 2000, 500, 0.9, 0.7, 5)
	params := Params{NumSets: 30, NumElems: 2000, K: 4, Eps: 0.3, EdgeBudget: 300, Seed: 13}
	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	half := len(edges) / 2

	frozen, twin := MustNewSketch(params), MustNewSketch(params)
	frozen.AddEdges(edges[:half])
	twin.AddEdges(edges[:half])

	before := frozen.Stats()
	v := frozen.Freeze()
	if after := frozen.Stats(); after != before {
		t.Fatalf("Freeze changed the sketch's stats: %+v -> %+v", before, after)
	}
	viewMatchesSketch(t, v, twin)
	g, ids, err := v.Graph()
	if err != nil {
		t.Fatal(err)
	}
	wg, wids := referenceGraph(t, twin)
	sameGraph(t, g, wg, ids, wids)
	cut := stateBytes(t, v)

	frozen.AddEdges(edges[half:])
	twin.AddEdges(edges[half:])
	if frozen.Stats() != twin.Stats() {
		t.Fatalf("ingest after Freeze diverged: %+v vs %+v", frozen.Stats(), twin.Stats())
	}
	if !bytes.Equal(stateBytes(t, frozen), stateBytes(t, twin)) {
		t.Fatal("ingest after Freeze built a different sketch")
	}
	if !bytes.Equal(stateBytes(t, v), cut) {
		t.Fatal("view changed when its sketch ingested more")
	}
}

// TestReadSketchNormalizesLegacyBlobs feeds ReadSketch a valid but
// non-canonical blob — elements in reverse order, set lists descending,
// as a writer that dumped its heap would have produced — and expects
// the canonical sketch back.
func TestReadSketchNormalizesLegacyBlobs(t *testing.T) {
	sk := buildTestSketch(t, 400, 11)
	canonical := stateBytes(t, sk)
	v := sk.Freeze()

	const header = len(SketchMagic) + 98
	legacy := append([]byte(nil), canonical[:header]...)
	for i := len(v.elems) - 1; i >= 0; i-- {
		sets := v.sets[v.off[i]:v.off[i+1]]
		legacy = binary.LittleEndian.AppendUint32(legacy, v.elems[i])
		legacy = binary.LittleEndian.AppendUint32(legacy, uint32(len(sets)))
		for j := len(sets) - 1; j >= 0; j-- {
			legacy = binary.LittleEndian.AppendUint32(legacy, sets[j])
		}
	}
	if bytes.Equal(legacy, canonical) {
		t.Fatal("test needs a sketch with more than one element")
	}
	got, err := ReadSketch(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, got), canonical) {
		t.Fatal("legacy blob did not normalize to the canonical bytes")
	}
	for cut := header; cut < len(legacy); cut += 37 {
		if _, err := ReadSketch(bytes.NewReader(legacy[:cut])); err == nil {
			t.Fatalf("blob truncated at %d accepted", cut)
		}
	}
}

// TestMergedStateGoldenBytes pins the serialized format across the
// move to views: testdata/merged_v1.skch is the merge of three shard
// sketches of a fixed instance as the pre-view MergeAll + Sketch.WriteTo
// wrote it. The view path must produce those bytes, and must decode and
// fold them as an old peer's blob.
func TestMergedStateGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "merged_v1.skch"))
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.Zipf(30, 600, 200, 0.9, 0.7, 1)
	params := smallParams(30, 4, 200, 42)
	locals := make([]*Sketch, 3)
	views := make([]*View, 3)
	seen := int64(0)
	for i, sh := range splitEdges(inst.G, 3, 3) {
		locals[i] = MustNewSketch(params)
		locals[i].AddEdges(sh)
		views[i] = locals[i].Freeze()
		seen += int64(len(sh))
	}
	merged, err := MergeAll(params, locals...)
	if err != nil {
		t.Fatal(err)
	}
	merged.SetEdgesSeen(seen)
	if !bytes.Equal(stateBytes(t, merged), golden) {
		t.Fatal("MergeAll + Sketch.WriteTo no longer writes the golden bytes")
	}
	mv, err := MergeViews(params, seen, views...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, mv), golden) {
		t.Fatal("MergeViews + View.WriteTo does not write the golden bytes")
	}

	old, err := ReadSketch(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, old.Freeze()), golden) {
		t.Fatal("golden blob does not survive decode + freeze + encode")
	}
	// Folding the old peer's blob with the views it was merged from
	// changes nothing: the merge is idempotent.
	again, err := MergeViews(params, seen, append(views, old.Freeze())...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, again), golden) {
		t.Fatal("folding the golden blob back in changed the merged state")
	}
}

// BenchmarkFreeze and BenchmarkClone cut the same shard-sized sketch the
// two ways a shard can answer a state request.
func benchShardSketch(b *testing.B) *Sketch {
	inst := workload.Zipf(1000, 400000, 200000, 0.9, 0.7, 1)
	params := Params{NumSets: 1000, NumElems: 400000, K: 20, Eps: 0.3, Seed: 7, EdgeBudget: 200000}
	s := MustNewSketch(params)
	s.AddStream(stream.Shuffled(inst.G, 1))
	b.ReportAllocs()
	b.ResetTimer()
	return s
}

func BenchmarkFreeze(b *testing.B) {
	s := benchShardSketch(b)
	for i := 0; i < b.N; i++ {
		if len(s.Freeze().elems) != s.Elements() {
			b.Fatal("bad view")
		}
	}
}

func BenchmarkClone(b *testing.B) {
	s := benchShardSketch(b)
	for i := 0; i < b.N; i++ {
		if s.Clone().Elements() != s.Elements() {
			b.Fatal("bad clone")
		}
	}
}
