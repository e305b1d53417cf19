package stream

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"repro/internal/bipartite"
)

func edgeKey(e bipartite.Edge) uint64 { return uint64(e.Set)<<32 | uint64(e.Elem) }

func multiset(edges []bipartite.Edge) map[uint64]int {
	m := map[uint64]int{}
	for _, e := range edges {
		m[edgeKey(e)]++
	}
	return m
}

func sameMultiset(a, b []bipartite.Edge) bool {
	ma, mb := multiset(a), multiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

func testGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	return bipartite.MustFromEdges(4, 6, []bipartite.Edge{
		{Set: 0, Elem: 0}, {Set: 0, Elem: 1},
		{Set: 1, Elem: 1}, {Set: 1, Elem: 2}, {Set: 1, Elem: 3},
		{Set: 2, Elem: 3}, {Set: 2, Elem: 4},
		{Set: 3, Elem: 5},
	})
}

func TestSliceNextAndReset(t *testing.T) {
	edges := []bipartite.Edge{{Set: 0, Elem: 1}, {Set: 1, Elem: 2}}
	s := NewSlice(edges)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Drain(s)
	if !sameMultiset(got, edges) {
		t.Fatal("Drain lost edges")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded edge")
	}
	s.Reset()
	if got2 := Drain(s); !sameMultiset(got2, edges) {
		t.Fatal("Reset did not replay")
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	g := testGraph(t)
	st := Shuffled(g, 42)
	got := Drain(st)
	if !sameMultiset(got, g.Edges(nil)) {
		t.Fatal("Shuffled changed the edge multiset")
	}
}

func TestShuffledDeterministicBySeed(t *testing.T) {
	g := testGraph(t)
	a := Drain(Shuffled(g, 7))
	b := Drain(Shuffled(g, 7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different orders")
		}
	}
	c := Drain(Shuffled(g, 8))
	different := false
	for i := range a {
		if a[i] != c[i] {
			different = true
		}
	}
	if !different {
		t.Fatal("different seeds produced identical order (suspicious)")
	}
}

func TestBySetGroupsEdges(t *testing.T) {
	g := testGraph(t)
	st := BySet(g, 3)
	edges := Drain(st)
	if !sameMultiset(edges, g.Edges(nil)) {
		t.Fatal("BySet changed the edge multiset")
	}
	// All edges of a set must be contiguous.
	seen := map[uint32]bool{}
	var cur uint32 = ^uint32(0)
	for _, e := range edges {
		if e.Set != cur {
			if seen[e.Set] {
				t.Fatalf("set %d appeared in two runs", e.Set)
			}
			seen[e.Set] = true
			cur = e.Set
		}
	}
}

func TestAdversarialOrdersByElementDegree(t *testing.T) {
	g := testGraph(t)
	edges := Drain(Adversarial(g))
	if !sameMultiset(edges, g.Edges(nil)) {
		t.Fatal("Adversarial changed the edge multiset")
	}
	for i := 1; i < len(edges); i++ {
		if g.ElemDegree(int(edges[i-1].Elem)) < g.ElemDegree(int(edges[i].Elem)) {
			t.Fatal("Adversarial not sorted by descending element degree")
		}
	}
}

func TestBatchesSplitsAtSizeAndCountsAccepted(t *testing.T) {
	g := testGraph(t) // 8 edges
	for _, size := range []int{1, 3, 4, 8, 100} {
		var got []bipartite.Edge
		var lens []int
		n, err := Batches(Shuffled(g, 1), size, func(b []bipartite.Edge) error {
			lens = append(lens, len(b))
			got = append(got, b...)
			return nil
		})
		if err != nil || n != int64(g.NumEdges()) {
			t.Fatalf("size %d: Batches = %d, %v", size, n, err)
		}
		if !slices.Equal(got, Drain(Shuffled(g, 1))) {
			t.Fatalf("size %d: batches do not replay the stream in order", size)
		}
		for i, l := range lens {
			last := i == len(lens)-1
			if l == 0 || l > size || (!last && l != size) {
				t.Fatalf("size %d: batch lengths %v", size, lens)
			}
		}
	}
	// An empty stream hands fn nothing, not an empty batch.
	n, err := Batches(NewSlice(nil), 4, func([]bipartite.Edge) error {
		t.Fatal("fn called on an empty stream")
		return nil
	})
	if n != 0 || err != nil {
		t.Fatalf("empty stream: Batches = %d, %v", n, err)
	}
}

func TestBatchesStopsAtFirstError(t *testing.T) {
	g := testGraph(t)
	boom := errors.New("boom")
	calls := 0
	n, err := Batches(Shuffled(g, 1), 3, func([]bipartite.Edge) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 3 || calls != 2 {
		t.Fatalf("Batches = %d, %v after %d calls; want 3, boom after 2", n, err, calls)
	}
}

// collectSets drains a SetStream into explicit (id, elems) pairs, copying
// the element slices the stream reuses.
func collectSets(ss SetStream) (ids []uint32, sets [][]uint32) {
	for {
		id, elems, ok := ss.NextSet()
		if !ok {
			return ids, sets
		}
		ids = append(ids, id)
		sets = append(sets, append([]uint32(nil), elems...))
	}
}

func TestGraphSetStream(t *testing.T) {
	g := testGraph(t)
	ss := NewGraphSetStream(g, 5)
	if ss.NumSets() != g.NumSets() {
		t.Fatalf("NumSets = %d", ss.NumSets())
	}
	ids, sets := collectSets(ss)
	if len(ids) != g.NumSets() {
		t.Fatalf("collected %d sets", len(ids))
	}
	sortedIDs := append([]uint32(nil), ids...)
	sort.Slice(sortedIDs, func(i, j int) bool { return sortedIDs[i] < sortedIDs[j] })
	for i, id := range sortedIDs {
		if id != uint32(i) {
			t.Fatalf("ids not a permutation: %v", ids)
		}
	}
	for i, id := range ids {
		want := g.Set(int(id))
		if len(sets[i]) != len(want) {
			t.Fatalf("set %d has wrong elements", id)
		}
		for j := range want {
			if sets[i][j] != want[j] {
				t.Fatalf("set %d element mismatch", id)
			}
		}
	}
	// Resettable.
	ss.ResetSets()
	ids2, _ := collectSets(ss)
	if len(ids2) != len(ids) {
		t.Fatal("ResetSets did not replay")
	}
}
