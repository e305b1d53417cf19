package core

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// splitEdges partitions g's edges into w shards deterministically.
func splitEdges(g *bipartite.Graph, w int, seed uint64) [][]bipartite.Edge {
	h := hashing.NewHasher(seed)
	out := make([][]bipartite.Edge, w)
	for s := 0; s < g.NumSets(); s++ {
		for _, e := range g.Set(s) {
			edge := bipartite.Edge{Set: uint32(s), Elem: e}
			i := int(h.Hash(edge.Set*31+edge.Elem) % uint64(w))
			out[i] = append(out[i], edge)
		}
	}
	return out
}

func sketchesEqual(t *testing.T, a, b *Sketch, g *bipartite.Graph) {
	t.Helper()
	if a.Elements() != b.Elements() || a.Edges() != b.Edges() {
		t.Fatalf("sketches differ: (%d el, %d ed) vs (%d el, %d ed)",
			a.Elements(), a.Edges(), b.Elements(), b.Edges())
	}
	if a.PStar() != b.PStar() {
		t.Fatalf("PStar %v vs %v", a.PStar(), b.PStar())
	}
	for e := 0; e < g.NumElems(); e++ {
		sa, sb := a.SetsOf(uint32(e)), b.SetsOf(uint32(e))
		if (sa == nil) != (sb == nil) || len(sa) != len(sb) {
			t.Fatalf("element %d: kept %d vs %d edges", e, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("element %d: edge sets differ", e)
			}
		}
	}
}

func TestMergeEqualsGlobalSketch(t *testing.T) {
	inst := workload.Zipf(30, 600, 200, 0.9, 0.7, 1)
	g := inst.G
	params := smallParams(30, 4, 200, 42)
	params.DegreeCap = g.MaxElemDegree() + 1

	global := MustNewSketch(params)
	feed(global, g, 5)

	for _, w := range []int{2, 3, 5, 8} {
		shards := splitEdges(g, w, uint64(w))
		locals := make([]*Sketch, w)
		for i, sh := range shards {
			locals[i] = MustNewSketch(params)
			for _, e := range sh {
				locals[i].AddEdge(e)
			}
		}
		merged, err := MergeAll(params, locals...)
		if err != nil {
			t.Fatal(err)
		}
		sketchesEqual(t, merged, global, g)
	}
}

func TestMergeWithCapBindingKeepsCounts(t *testing.T) {
	// With binding caps, merged and global sketches still agree edge for
	// edge: every sketch keeps an element's D smallest set ids.
	inst := workload.LargeSets(20, 800, 0.5, 2)
	g := inst.G
	params := smallParams(20, 3, 300, 7)
	params.DegreeCap = 4

	global := MustNewSketch(params)
	feed(global, g, 3)

	shards := splitEdges(g, 4, 9)
	locals := make([]*Sketch, len(shards))
	for i, sh := range shards {
		locals[i] = MustNewSketch(params)
		for _, e := range sh {
			locals[i].AddEdge(e)
		}
	}
	merged, err := MergeAll(params, locals...)
	if err != nil {
		t.Fatal(err)
	}
	sketchesEqual(t, merged, global, g)
}

func TestMergeOrderIrrelevant(t *testing.T) {
	inst := workload.Uniform(15, 300, 0.08, 3)
	g := inst.G
	params := smallParams(15, 3, 120, 11)
	params.DegreeCap = g.MaxElemDegree() + 1

	shards := splitEdges(g, 3, 4)
	build := func(order []int) *Sketch {
		out := MustNewSketch(params)
		for _, i := range order {
			local := MustNewSketch(params)
			for _, e := range shards[i] {
				local.AddEdge(e)
			}
			if err := out.MergeView(local.Freeze()); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	sketchesEqual(t, a, b, g)
}

func TestMergeRejectsIncompatible(t *testing.T) {
	a := MustNewSketch(smallParams(10, 2, 50, 1))
	cases := []Params{
		smallParams(11, 2, 50, 1), // different n
		smallParams(10, 3, 50, 1), // different k
		smallParams(10, 2, 60, 1), // different budget
		smallParams(10, 2, 50, 2), // different seed
	}
	for i, p := range cases {
		b := MustNewSketch(p)
		if err := a.MergeView(b.Freeze()); err == nil {
			t.Fatalf("case %d: incompatible merge accepted", i)
		}
	}
	// Merging nil is a no-op.
	if err := a.MergeView(nil); err != nil {
		t.Fatalf("nil merge errored: %v", err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	inst := workload.Uniform(10, 200, 0.1, 4)
	params := smallParams(10, 2, 5000, 3)
	a := MustNewSketch(params)
	feed(a, inst.G, 1)
	before := a.Edges()
	// Merging a sketch into an equal one must not change it (dedupe).
	b := MustNewSketch(params)
	feed(b, inst.G, 2)
	if err := a.MergeView(b.Freeze()); err != nil {
		t.Fatal(err)
	}
	if a.Edges() != before {
		t.Fatalf("self-merge changed edges: %d -> %d", before, a.Edges())
	}
}

func TestMergePropagatesEvictionBar(t *testing.T) {
	// Regression: merging a single evicting sketch into a fresh one must
	// reproduce its sampling probability, not reset it to 1 — the
	// coordinator only sees kept edges, so the bar has to travel with
	// the sketch.
	inst := workload.Zipf(25, 800, 300, 0.9, 0.7, 9)
	params := smallParams(25, 4, 250, 17)
	single := MustNewSketch(params)
	feed(single, inst.G, 2)
	if single.PStar() >= 1 {
		t.Fatal("test needs an evicting sketch; lower the budget")
	}
	merged, err := MergeAll(params, single)
	if err != nil {
		t.Fatal(err)
	}
	if merged.PStar() != single.PStar() {
		t.Fatalf("merged PStar %v != single %v", merged.PStar(), single.PStar())
	}
	sketchesEqual(t, merged, single, inst.G)
	// Coverage estimates must agree exactly.
	sets := []int{0, 1, 2, 3}
	if merged.EstimateCoverage(sets) != single.EstimateCoverage(sets) {
		t.Fatalf("estimate %v != %v", merged.EstimateCoverage(sets), single.EstimateCoverage(sets))
	}
}

func TestMergeBarDropsIncompleteElements(t *testing.T) {
	// An element kept by one worker but above another worker's bar has a
	// possibly-incomplete edge list; the merge must not keep it.
	inst := workload.Zipf(20, 600, 200, 0.9, 0.7, 10)
	g := inst.G
	params := smallParams(20, 3, 150, 23)
	params.DegreeCap = g.MaxElemDegree() + 1

	global := MustNewSketch(params)
	feed(global, g, 1)

	shards := splitEdges(g, 3, 31)
	locals := make([]*Sketch, len(shards))
	for i, sh := range shards {
		locals[i] = MustNewSketch(params)
		for _, e := range sh {
			locals[i].AddEdge(e)
		}
	}
	merged, err := MergeAll(params, locals...)
	if err != nil {
		t.Fatal(err)
	}
	sketchesEqual(t, merged, global, g)
}

func TestMergeDoesNotPolluteStreamAccounting(t *testing.T) {
	// Regression: merging used to fold other's kept edges through AddEdge,
	// inflating the merged sketch's EdgesSeen/DupEdges as if the kept
	// edges had been stream traffic. The merge path must update the
	// structure without touching stream accounting.
	inst := workload.Zipf(20, 500, 150, 0.9, 0.7, 12)
	g := inst.G
	params := smallParams(20, 3, 120, 19)

	shards := splitEdges(g, 2, 5)
	locals := make([]*Sketch, len(shards))
	for i, sh := range shards {
		locals[i] = MustNewSketch(params)
		for _, e := range sh {
			locals[i].AddEdge(e)
		}
	}
	merged, err := MergeAll(params, locals...)
	if err != nil {
		t.Fatal(err)
	}
	st := merged.Stats()
	if st.EdgesSeen != 0 {
		t.Fatalf("merged sketch EdgesSeen = %d, want 0 (re-folded kept edges are not stream traffic)", st.EdgesSeen)
	}
	if st.DupEdges != 0 || st.DropHash != 0 || st.DropDegree != 0 {
		t.Fatalf("merged sketch drop counters polluted: %+v", st)
	}

	// Merging into a live sketch must leave its own stream accounting
	// untouched.
	live := MustNewSketch(params)
	for _, e := range shards[0] {
		live.AddEdge(e)
	}
	before := live.Stats()
	if err := live.MergeView(locals[1].Freeze()); err != nil {
		t.Fatal(err)
	}
	after := live.Stats()
	if after.EdgesSeen != before.EdgesSeen || after.DupEdges != before.DupEdges {
		t.Fatalf("merge changed stream accounting: %+v -> %+v", before, after)
	}
}

func TestFreezeElemsEnumeratesExactly(t *testing.T) {
	inst := workload.Uniform(8, 100, 0.15, 5)
	params := smallParams(8, 2, 10000, 9)
	s := MustNewSketch(params)
	feed(s, inst.G, 1)
	count := 0
	for elem, sets := range s.Freeze().Elems() {
		for _, set := range sets {
			if !inst.G.Contains(int(set), elem) {
				t.Fatalf("Freeze().Elems() invented edge (%d,%d)", set, elem)
			}
			count++
		}
	}
	if count != s.Edges() {
		t.Fatalf("enumerated %d of %d edges", count, s.Edges())
	}
}

// sequentialMergeAll is the sequential reference MergeAll is pinned
// against: a left fold of MergeView over the inputs' views.
func sequentialMergeAll(t *testing.T, params Params, sketches []*Sketch) *Sketch {
	t.Helper()
	out := MustNewSketch(params)
	for _, sk := range sketches {
		if err := out.MergeView(sk.Freeze()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestMergeAllTreeEqualsSequential(t *testing.T) {
	inst := workload.Zipf(30, 600, 200, 0.9, 0.7, 5)
	g := inst.G
	params := smallParams(30, 4, 200, 17)
	params.DegreeCap = g.MaxElemDegree() + 1

	// Odd and even shard counts exercise the leftover carry of the tree.
	for _, w := range []int{3, 4, 5, 8, 9} {
		shards := splitEdges(g, w, uint64(w)+100)
		locals := make([]*Sketch, w)
		before := make([]Stats, w)
		for i, sh := range shards {
			locals[i] = MustNewSketch(params)
			locals[i].AddEdges(sh)
			before[i] = locals[i].Stats()
		}
		want := sequentialMergeAll(t, params, locals)
		got, err := MergeAll(params, locals...)
		if err != nil {
			t.Fatal(err)
		}
		sketchesEqual(t, got, want, g)
		// Inputs must come back untouched: the tree only mutates
		// intermediates it allocated itself.
		for i, sk := range locals {
			if sk.Stats() != before[i] {
				t.Fatalf("w=%d: input sketch %d modified by MergeAll: %+v -> %+v",
					w, i, before[i], sk.Stats())
			}
		}
	}
}

func TestMergeAllTreeWithBindingCaps(t *testing.T) {
	// With binding degree caps every fold order keeps each element's D
	// smallest set ids, so the sketches are equal edge for edge.
	inst := workload.LargeSets(20, 800, 0.5, 4)
	g := inst.G
	params := smallParams(20, 3, 300, 7)
	params.DegreeCap = 4

	shards := splitEdges(g, 5, 21)
	locals := make([]*Sketch, len(shards))
	for i, sh := range shards {
		locals[i] = MustNewSketch(params)
		locals[i].AddEdges(sh)
	}
	want := sequentialMergeAll(t, params, locals)
	got, err := MergeAll(params, locals...)
	if err != nil {
		t.Fatal(err)
	}
	sketchesEqual(t, got, want, g)
}

func TestMergeAllSkipsNilInputs(t *testing.T) {
	inst := workload.Uniform(10, 200, 0.1, 9)
	params := smallParams(10, 2, 100, 3)
	params.DegreeCap = inst.G.MaxElemDegree() + 1
	a := MustNewSketch(params)
	feed(a, inst.G, 2)
	got, err := MergeAll(params, nil, a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sketchesEqual(t, got, a, inst.G)
}

// TestMergeAllOverlappingInputs exercises the presift fallback: inputs
// that share (set, elem) pairs inflate the presift degree sums, which
// MergeAll must detect and survive with an answer identical to the
// sequential fold.
func TestMergeAllOverlappingInputs(t *testing.T) {
	inst := workload.Zipf(25, 500, 150, 0.9, 0.7, 11)
	g := inst.G
	params := smallParams(25, 3, 150, 13)
	params.DegreeCap = g.MaxElemDegree() + 1

	// Each input sees a random ~60% of the edges; overlaps abound.
	edges := g.Edges(nil)
	locals := make([]*Sketch, 5)
	for i := range locals {
		locals[i] = MustNewSketch(params)
		h := hashing.NewHasher(uint64(i) * 77)
		for _, e := range edges {
			if h.Hash(e.Set*131+e.Elem)%10 < 6 {
				locals[i].AddEdge(e)
			}
		}
	}
	want := sequentialMergeAll(t, params, locals)
	got, err := MergeAll(params, locals...)
	if err != nil {
		t.Fatal(err)
	}
	sketchesEqual(t, got, want, g)
}
