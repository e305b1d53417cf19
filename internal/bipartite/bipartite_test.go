package bipartite

import (
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, 5, []Edge{
		{0, 0}, {0, 1}, {0, 2},
		{1, 2}, {1, 3},
		{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := tinyGraph(t)
	if g.NumSets() != 3 || g.NumElems() != 5 || g.NumEdges() != 6 {
		t.Fatalf("dims: n=%d m=%d e=%d", g.NumSets(), g.NumElems(), g.NumEdges())
	}
	if g.SetLen(0) != 3 || g.SetLen(1) != 2 || g.SetLen(2) != 1 {
		t.Fatal("set sizes wrong")
	}
	want := []uint32{0, 1, 2}
	for i, e := range g.Set(0) {
		if e != want[i] {
			t.Fatalf("Set(0) = %v", g.Set(0))
		}
	}
}

func TestFromEdgesDedupes(t *testing.T) {
	g, err := FromEdges(2, 2, []Edge{{0, 1}, {0, 1}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("dedupe failed: %d edges", g.NumEdges())
	}
}

func TestFromEdgesSortsUnsortedInput(t *testing.T) {
	g, err := FromEdges(1, 10, []Edge{{0, 9}, {0, 3}, {0, 7}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Set(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("Set(0) not sorted: %v", adj)
		}
	}
}

func TestFromEdgesRangeErrors(t *testing.T) {
	if _, err := FromEdges(2, 2, []Edge{{2, 0}}); err == nil {
		t.Fatal("out-of-range set accepted")
	}
	if _, err := FromEdges(2, 2, []Edge{{0, 2}}); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	if _, err := FromEdges(-1, 2, nil); err == nil {
		t.Fatal("negative dims accepted")
	}
}

func TestElemIndexMirrorsSetIndex(t *testing.T) {
	g := tinyGraph(t)
	if g.ElemDegree(2) != 2 {
		t.Fatalf("ElemDegree(2) = %d", g.ElemDegree(2))
	}
	sets := g.Elem(2)
	if len(sets) != 2 || sets[0] != 0 || sets[1] != 1 {
		t.Fatalf("Elem(2) = %v", sets)
	}
	// Every edge visible both ways.
	for s := 0; s < g.NumSets(); s++ {
		for _, e := range g.Set(s) {
			found := false
			for _, back := range g.Elem(int(e)) {
				if back == uint32(s) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) missing from element index", s, e)
			}
		}
	}
}

func TestContains(t *testing.T) {
	g := tinyGraph(t)
	if !g.Contains(0, 1) || g.Contains(0, 4) || g.Contains(2, 0) {
		t.Fatal("Contains wrong")
	}
}

func TestCoverage(t *testing.T) {
	g := tinyGraph(t)
	cases := []struct {
		sets []int
		want int
	}{
		{nil, 0},
		{[]int{0}, 3},
		{[]int{1}, 2},
		{[]int{0, 1}, 4},
		{[]int{0, 1, 2}, 5},
		{[]int{2, 2}, 1},
	}
	for _, c := range cases {
		if got := g.Coverage(c.sets); got != c.want {
			t.Fatalf("Coverage(%v) = %d, want %d", c.sets, got, c.want)
		}
	}
}

func TestCovererIncrementalAndMarginal(t *testing.T) {
	g := tinyGraph(t)
	c := NewCoverer(g)
	if c.Marginal(0) != 3 {
		t.Fatalf("Marginal(0) = %d", c.Marginal(0))
	}
	if got := c.Add(0); got != 3 {
		t.Fatalf("Add(0) = %d", got)
	}
	if c.Marginal(1) != 1 { // element 2 already covered
		t.Fatalf("Marginal(1) after Add(0) = %d", c.Marginal(1))
	}
	if got := c.Add(1); got != 4 {
		t.Fatalf("Add(1) = %d", got)
	}
	if !c.IsCovered(2) || c.IsCovered(4) {
		t.Fatal("IsCovered wrong")
	}
	c.Reset()
	if c.Covered() != 0 || c.IsCovered(0) {
		t.Fatal("Reset did not clear")
	}
	if got := c.Add(2); got != 1 {
		t.Fatalf("Add after Reset = %d", got)
	}
}

func TestCovererEpochWrap(t *testing.T) {
	g := tinyGraph(t)
	c := NewCoverer(g)
	c.Add(0)
	// Force the epoch counter to wrap.
	c.epoch = ^uint32(0)
	c.Reset()
	if c.IsCovered(0) {
		t.Fatal("stale coverage visible after epoch wrap")
	}
	if got := c.Add(0); got != 3 {
		t.Fatalf("Add after wrap = %d", got)
	}
}

func TestDegreeStats(t *testing.T) {
	g := tinyGraph(t)
	if g.MaxElemDegree() != 2 {
		t.Fatalf("MaxElemDegree = %d", g.MaxElemDegree())
	}
	if g.CoveredElems() != 5 {
		t.Fatalf("CoveredElems = %d", g.CoveredElems())
	}
}

func TestIsolatedElements(t *testing.T) {
	g, err := FromEdges(2, 4, []Edge{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.CoveredElems() != 2 {
		t.Fatalf("CoveredElems = %d", g.CoveredElems())
	}
	if g.ElemDegree(3) != 0 {
		t.Fatal("isolated element has edges")
	}
}

func TestInduce(t *testing.T) {
	g := tinyGraph(t)
	sub := g.Induce(func(e uint32) bool { return e%2 == 0 })
	if sub.NumSets() != g.NumSets() || sub.NumElems() != g.NumElems() {
		t.Fatal("Induce changed dimensions")
	}
	// Only even elements remain: set 0 keeps {0,2}, set 1 keeps {2}, set 2 keeps {4}.
	if sub.SetLen(0) != 2 || sub.SetLen(1) != 1 || sub.SetLen(2) != 1 {
		t.Fatalf("Induce kept wrong edges: %d %d %d", sub.SetLen(0), sub.SetLen(1), sub.SetLen(2))
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	edges := g.Edges(nil)
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d", len(edges))
	}
	g2, err := FromEdges(g.NumSets(), g.NumElems(), edges)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.NumSets(); s++ {
		a, b := g.Set(s), g2.Set(s)
		if len(a) != len(b) {
			t.Fatalf("set %d size mismatch", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("set %d differs", s)
			}
		}
	}
}

func TestFromSets(t *testing.T) {
	g, err := FromSets(4, [][]uint32{{0, 1}, {1, 2, 3}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSets() != 3 || g.SetLen(2) != 0 || g.NumEdges() != 5 {
		t.Fatal("FromSets wrong")
	}
}

// randomGraph builds a random instance for property tests.
func randomGraph(seed uint64, n, m int, density float64) *Graph {
	rng := hashing.NewRNG(seed)
	var edges []Edge
	for s := 0; s < n; s++ {
		for e := 0; e < m; e++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{Set: uint32(s), Elem: uint32(e)})
			}
		}
	}
	return MustFromEdges(n, m, edges)
}

func TestCoverageMonotone(t *testing.T) {
	err := quick.Check(func(seed uint64, pick uint8) bool {
		g := randomGraph(seed, 8, 30, 0.15)
		var sets []int
		for s := 0; s < 8; s++ {
			if pick&(1<<uint(s)) != 0 {
				sets = append(sets, s)
			}
		}
		base := g.Coverage(sets)
		for s := 0; s < 8; s++ {
			if g.Coverage(append(append([]int(nil), sets...), s)) < base {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoverageSubmodular(t *testing.T) {
	// f(A + x) - f(A) >= f(B + x) - f(B) for A ⊆ B.
	err := quick.Check(func(seed uint64, maskA, extra uint8) bool {
		g := randomGraph(seed, 8, 30, 0.15)
		maskB := maskA | extra
		var a, b []int
		for s := 0; s < 8; s++ {
			if maskA&(1<<uint(s)) != 0 {
				a = append(a, s)
			}
			if maskB&(1<<uint(s)) != 0 {
				b = append(b, s)
			}
		}
		fa, fb := g.Coverage(a), g.Coverage(b)
		for x := 0; x < 8; x++ {
			gainA := g.Coverage(append(append([]int(nil), a...), x)) - fa
			gainB := g.Coverage(append(append([]int(nil), b...), x)) - fb
			if gainA < gainB {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFromElemCSREqualsFromEdges hands FromElemCSR the element side of
// random graphs and expects the graph FromEdges builds, both indexes.
func TestFromElemCSREqualsFromEdges(t *testing.T) {
	check := func(seed uint64) bool {
		rng := hashing.NewRNG(seed)
		n, m := 1+rng.Intn(12), rng.Intn(40)
		var edges []Edge
		for i := rng.Intn(6 * (m + 1)); i > 0 && m > 0; i-- {
			edges = append(edges, Edge{Set: uint32(rng.Intn(n)), Elem: uint32(rng.Intn(m))})
		}
		want := MustFromEdges(n, m, edges)
		got, err := FromElemCSR(n, want.elemOff, want.elemAdj)
		if err != nil {
			t.Log(err)
			return false
		}
		if got.NumSets() != n || got.NumElems() != m || got.NumEdges() != want.NumEdges() {
			return false
		}
		for s := 0; s < n; s++ {
			a, b := got.Set(s), want.Set(s)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		for e := 0; e < m; e++ {
			if len(got.Elem(e)) != len(want.Elem(e)) {
				return false
			}
		}
		return got.Coverage([]int{0}) == want.Coverage([]int{0})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFromElemCSRRejectsMalformed: every way the arrays can be
// inconsistent is an error, never a panic or a silently wrong graph.
func TestFromElemCSRRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		n    int
		off  []int64
		adj  []uint32
	}{
		{"negative set count", -1, []int64{0}, nil},
		{"no offsets", 3, nil, nil},
		{"offsets do not start at zero", 3, []int64{1, 2}, []uint32{0, 1}},
		{"offsets stop short of the array", 3, []int64{0, 1}, []uint32{0, 1}},
		{"offsets run past the array", 3, []int64{0, 1, 5}, []uint32{0, 1}},
		{"interior offset past the array", 3, []int64{0, 9, 2}, []uint32{0, 1}},
		{"non-monotone offsets", 3, []int64{0, 2, 1, 3}, []uint32{0, 1, 2}},
		{"negative offset", 3, []int64{0, -1, 2}, []uint32{0, 1}},
		{"set id equal to n", 3, []int64{0, 2}, []uint32{1, 3}},
		{"set id far past n", 3, []int64{0, 1}, []uint32{1 << 31}},
		{"unsorted set list", 3, []int64{0, 2}, []uint32{2, 1}},
		{"duplicated set id", 3, []int64{0, 2}, []uint32{1, 1}},
		{"second element unsorted", 3, []int64{0, 1, 3}, []uint32{2, 1, 0}},
	}
	for _, c := range cases {
		if g, err := FromElemCSR(c.n, c.off, c.adj); err == nil {
			t.Errorf("%s: accepted (%d sets, %d elems, %d edges)", c.name, g.NumSets(), g.NumElems(), g.NumEdges())
		}
	}
	// Lists may restart lower at an element boundary, and empty elements
	// and an empty graph are fine.
	for _, ok := range []struct {
		off []int64
		adj []uint32
	}{
		{[]int64{0, 2, 2, 3}, []uint32{1, 2, 0}},
		{[]int64{0}, nil},
	} {
		if _, err := FromElemCSR(3, ok.off, ok.adj); err != nil {
			t.Errorf("well-formed input %v/%v rejected: %v", ok.off, ok.adj, err)
		}
	}
}
