package core

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/workload"
)

// smallParams returns practical sketch parameters for tests.
func smallParams(n, k int, budget int, seed uint64) Params {
	return Params{NumSets: n, NumElems: 1 << 12, K: k, Eps: 0.4, Seed: seed, EdgeBudget: budget}
}

func feed(s *Sketch, g *bipartite.Graph, order uint64) {
	st := stream.Shuffled(g, order)
	for {
		e, ok := st.Next()
		if !ok {
			return
		}
		s.AddEdge(e)
	}
}

func TestSketchKeepsEverythingUnderBudget(t *testing.T) {
	inst := workload.Uniform(20, 100, 0.1, 1)
	g := inst.G
	s := MustNewSketch(smallParams(20, 3, g.NumEdges()+100, 7))
	feed(s, g, 1)
	if s.Edges() != g.NumEdges() {
		t.Fatalf("under budget: kept %d of %d edges", s.Edges(), g.NumEdges())
	}
	if s.PStar() != 1 {
		t.Fatalf("PStar = %v, want 1 when nothing evicted", s.PStar())
	}
	// Coverage on the sketch is exact coverage.
	for _, sets := range [][]int{{0}, {1, 2}, {0, 5, 9}} {
		if got := s.CoverageOf(sets); got != g.Coverage(sets) {
			t.Fatalf("coverage of %v: sketch %d, graph %d", sets, got, g.Coverage(sets))
		}
	}
}

func TestSketchRespectsBudget(t *testing.T) {
	inst := workload.Uniform(30, 500, 0.2, 2)
	g := inst.G
	budget := 200
	s := MustNewSketch(smallParams(30, 3, budget, 11))
	feed(s, g, 3)
	// Definition 2.1: p* is the smallest p with >= budget edges, so the
	// kept edges land in [budget, budget + degree cap of last element].
	if s.Edges() < budget {
		t.Fatalf("kept %d < budget %d despite large input", s.Edges(), budget)
	}
	if s.Edges() > budget+s.DegreeCap() {
		t.Fatalf("kept %d > budget %d + cap %d", s.Edges(), budget, s.DegreeCap())
	}
	if s.PStar() >= 1 {
		t.Fatal("eviction happened but PStar = 1")
	}
}

func TestSketchDegreeCapEnforced(t *testing.T) {
	// Every element belongs to all 50 sets; cap at 5.
	var edges []bipartite.Edge
	for st := 0; st < 50; st++ {
		for e := 0; e < 20; e++ {
			edges = append(edges, bipartite.Edge{Set: uint32(st), Elem: uint32(e)})
		}
	}
	g := bipartite.MustFromEdges(50, 20, edges)
	p := smallParams(50, 3, 10000, 5)
	p.DegreeCap = 5
	s := MustNewSketch(p)
	feed(s, g, 1)
	for e := uint32(0); e < 20; e++ {
		if got := len(s.SetsOf(e)); got > 5 {
			t.Fatalf("element %d kept %d edges > cap 5", e, got)
		}
	}
	if s.Stats().DropDegree == 0 {
		t.Fatal("expected degree-cap drops")
	}
}

func TestSketchDeduplicatesEdges(t *testing.T) {
	s := MustNewSketch(smallParams(5, 2, 100, 3))
	e := bipartite.Edge{Set: 1, Elem: 4}
	for i := 0; i < 10; i++ {
		s.AddEdge(e)
	}
	if s.Edges() != 1 {
		t.Fatalf("kept %d edges for one distinct membership", s.Edges())
	}
	if s.Stats().DupEdges != 9 {
		t.Fatalf("DupEdges = %d, want 9", s.Stats().DupEdges)
	}
}

func TestSketchOrderInvariance(t *testing.T) {
	// The kept element set, edge count and PStar must be identical for
	// any arrival order (Definition 2.1 depends only on hash values).
	inst := workload.Zipf(25, 400, 150, 0.9, 0.7, 4)
	g := inst.G
	var ref *Sketch
	for order := uint64(0); order < 5; order++ {
		s := MustNewSketch(smallParams(25, 4, 150, 99))
		feed(s, g, order)
		if ref == nil {
			ref = s
			continue
		}
		if s.Elements() != ref.Elements() || s.Edges() != ref.Edges() {
			t.Fatalf("order %d: elements/edges (%d,%d) != ref (%d,%d)",
				order, s.Elements(), s.Edges(), ref.Elements(), ref.Edges())
		}
		if s.PStar() != ref.PStar() {
			t.Fatalf("order %d: PStar %v != %v", order, s.PStar(), ref.PStar())
		}
		// Same kept elements.
		for e := 0; e < g.NumElems(); e++ {
			if s.Contains(uint32(e)) != ref.Contains(uint32(e)) {
				t.Fatalf("order %d: element %d membership differs", order, e)
			}
		}
	}
}

// TestStreamingMatchesOffline: Algorithm 2 produces Algorithm 1's sketch
// byte for byte — same elements, same set lists, same bar — over edge
// arrivals one at a time, in batches of random sizes and with each
// element's set ids descending, whether the degree cap binds or not: both
// keep an element over the cap with its D smallest set ids.
func TestStreamingMatchesOffline(t *testing.T) {
	bound := 0 // cases where a kept element lost edges to the cap
	for _, inst := range []workload.Instance{
		workload.Zipf(25, 400, 150, 0.9, 0.7, 4),
		workload.Uniform(20, 300, 0.05, 5),
		workload.LargeSets(12, 500, 0.4, 6),
	} {
		g := inst.G
		shuffled := stream.Drain(stream.Shuffled(g, 42))
		descending := slices.Clone(g.Edges(nil))
		slices.SortFunc(descending, func(a, b bipartite.Edge) int { return cmp.Compare(b.Set, a.Set) })
		orders := []struct {
			name string
			feed func(*Sketch)
		}{
			{"one at a time", func(s *Sketch) {
				for _, e := range shuffled {
					s.AddEdge(e)
				}
			}},
			{"batches", func(s *Sketch) {
				rng := rand.New(rand.NewPCG(7, 8))
				for rest := shuffled; len(rest) > 0; {
					n := min(1+rng.IntN(64), len(rest))
					s.AddEdges(rest[:n])
					rest = rest[n:]
				}
			}},
			{"descending set ids", func(s *Sketch) { s.AddEdges(descending) }},
		}
		for _, degCap := range []int{1, 2, 3, 5, g.MaxElemDegree() + 1} {
			for _, budget := range []int{g.NumEdges() / 4, 2 * g.NumEdges()} {
				params := smallParams(g.NumSets(), 4, budget, 77)
				params.DegreeCap = degCap
				off, err := BuildOffline(g, params)
				if err != nil {
					t.Fatal(err)
				}
				want := off.Freeze()
				want.edgesSeen = 0 // Algorithm 1 reads only the prefix it keeps
				for el, sets := range want.Elems() {
					if len(sets) < g.ElemDegree(int(el)) {
						bound++
						break
					}
				}
				for _, order := range orders {
					st := MustNewSketch(params)
					order.feed(st)
					got := st.Freeze()
					got.edgesSeen = 0
					if !bytes.Equal(viewBytes(got), viewBytes(want)) {
						t.Fatalf("%s D=%d B=%d, %s: streaming sketch differs from BuildOffline's (%s)",
							inst.Name, degCap, budget, order.name, viewsDiffer(got, want))
					}
				}
			}
		}
	}
	if bound == 0 {
		t.Fatal("the degree cap never bound on a kept element")
	}
}

func TestSketchIsSubgraph(t *testing.T) {
	inst := workload.Uniform(15, 200, 0.1, 6)
	g := inst.G
	s := MustNewSketch(smallParams(15, 3, 80, 13))
	feed(s, g, 9)
	for e := 0; e < g.NumElems(); e++ {
		for _, set := range s.SetsOf(uint32(e)) {
			if !g.Contains(int(set), uint32(e)) {
				t.Fatalf("sketch invented edge (%d,%d)", set, e)
			}
		}
	}
}

func TestSketchKeepsLowestHashElements(t *testing.T) {
	inst := workload.Uniform(10, 300, 0.08, 8)
	g := inst.G
	params := smallParams(10, 3, 60, 55)
	s := MustNewSketch(params)
	feed(s, g, 2)
	if s.PStar() >= 1 {
		t.Skip("no eviction at this budget; enlarge input")
	}
	h := hashing.NewHasher(params.Seed)
	bar := uint64(0)
	for e := 0; e < g.NumElems(); e++ {
		if s.Contains(uint32(e)) {
			if hv := h.Hash(uint32(e)); hv > bar {
				bar = hv
			}
		}
	}
	// No excluded element with edges may hash strictly below every kept
	// element (the kept set is a hash prefix).
	for e := 0; e < g.NumElems(); e++ {
		if g.ElemDegree(e) == 0 || s.Contains(uint32(e)) {
			continue
		}
		if h.Hash(uint32(e)) < bar {
			// Allowed only if it ties the bar element; exact prefix uses
			// (hash, id) ordering, so strict inequality is a bug.
			t.Fatalf("excluded element %d hashes below a kept element", e)
		}
	}
}

func TestSketchGraphExtraction(t *testing.T) {
	inst := workload.Uniform(12, 150, 0.1, 9)
	g := inst.G
	s := MustNewSketch(smallParams(12, 3, 70, 21))
	feed(s, g, 5)
	sg, ids := s.Graph()
	if sg.NumSets() != g.NumSets() {
		t.Fatal("sketch graph changed set count")
	}
	if sg.NumElems() != s.Elements() || len(ids) != s.Elements() {
		t.Fatalf("sketch graph has %d elements, sketch %d", sg.NumElems(), s.Elements())
	}
	// Edges must match SetsOf under the id mapping.
	total := 0
	for newID, orig := range ids {
		sets := s.SetsOf(orig)
		if sg.ElemDegree(newID) != len(sets) {
			t.Fatalf("element %d degree %d != %d", orig, sg.ElemDegree(newID), len(sets))
		}
		total += len(sets)
	}
	if total != s.Edges() {
		t.Fatalf("sketch graph edges %d != %d", total, s.Edges())
	}
}

func TestSketchStatsAccounting(t *testing.T) {
	inst := workload.Uniform(10, 100, 0.1, 10)
	g := inst.G
	s := MustNewSketch(smallParams(10, 2, 40, 31))
	feed(s, g, 7)
	st := s.Stats()
	if st.EdgesSeen != int64(g.NumEdges()) {
		t.Fatalf("EdgesSeen = %d, want %d", st.EdgesSeen, g.NumEdges())
	}
	if st.EdgesKept != s.Edges() || st.ElementsKept != s.Elements() {
		t.Fatal("stats disagree with accessors")
	}
	if st.PeakEdges < st.EdgesKept {
		t.Fatal("peak below current")
	}
	if st.Bytes <= 0 {
		t.Fatal("Bytes not accounted")
	}
	if st.PStar != s.PStar() {
		t.Fatal("stats PStar mismatch")
	}
}

func TestCoverageEstimateUnderBudgetIsExact(t *testing.T) {
	inst := workload.Uniform(8, 60, 0.2, 11)
	g := inst.G
	s := MustNewSketch(smallParams(8, 2, 10000, 41))
	feed(s, g, 1)
	for _, sets := range [][]int{{0}, {2, 4}, {0, 1, 2, 3}} {
		if est := s.EstimateCoverage(sets); est != float64(g.Coverage(sets)) {
			t.Fatalf("estimate %v != exact %d", est, g.Coverage(sets))
		}
	}
}

func TestCoverageEstimateAccuracyUnderSampling(t *testing.T) {
	// With eviction active, the estimate should land within a modest
	// relative error of the truth for large covers.
	inst := workload.LargeSets(10, 5000, 0.4, 12)
	g := inst.G
	params := smallParams(10, 3, 1500, 61)
	params.DegreeCap = 10 // elements have degree ~4 on average; allow all
	s := MustNewSketch(params)
	feed(s, g, 3)
	if s.PStar() >= 1 {
		t.Fatal("expected sampling on this instance")
	}
	sets := []int{0, 1, 2}
	truth := float64(g.Coverage(sets))
	est := s.EstimateCoverage(sets)
	if est < 0.85*truth || est > 1.15*truth {
		t.Fatalf("estimate %v too far from truth %v (p*=%v)", est, truth, s.PStar())
	}
}

func TestEvictionBarMonotone(t *testing.T) {
	// Once an element is evicted, later edges for it must be dropped.
	var edges []bipartite.Edge
	for e := 0; e < 200; e++ {
		edges = append(edges, bipartite.Edge{Set: uint32(e % 10), Elem: uint32(e)})
		edges = append(edges, bipartite.Edge{Set: uint32((e + 1) % 10), Elem: uint32(e)})
	}
	g := bipartite.MustFromEdges(10, 200, edges)
	s := MustNewSketch(smallParams(10, 2, 50, 71))
	feed(s, g, 1)
	if s.Stats().DropHash == 0 {
		t.Fatal("expected hash-bar drops on an over-budget stream")
	}
	// Feeding the whole stream again must not change the sketch.
	edgesBefore, elemsBefore := s.Edges(), s.Elements()
	feed(s, g, 2)
	if s.Edges() != edgesBefore || s.Elements() != elemsBefore {
		t.Fatal("replaying the stream changed a converged sketch")
	}
}

func TestAddStreamCountsEdges(t *testing.T) {
	inst := workload.Uniform(6, 40, 0.2, 13)
	s := MustNewSketch(smallParams(6, 2, 1000, 81))
	n := s.AddStream(stream.Shuffled(inst.G, 4))
	if n != inst.G.NumEdges() {
		t.Fatalf("AddStream consumed %d, want %d", n, inst.G.NumEdges())
	}
}

func TestNewSketchRejectsBadParams(t *testing.T) {
	if _, err := NewSketch(Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSketch did not panic")
		}
	}()
	MustNewSketch(Params{})
}
