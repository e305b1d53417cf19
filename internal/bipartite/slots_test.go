package bipartite

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSlotSetsVersionsAreTheInstanceTheyName builds a random instance,
// lays it out as slot lists and then adds and removes elements at random,
// taking a version after every step. Each version, read again after every
// later step, is exactly the graph of the elements present when it was
// taken: same edges, element side, coverage and counts, and evaluators of
// both engines that see no absent element.
func TestSlotSetsVersionsAreTheInstanceTheyName(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 12
	randomSets := func() []uint32 {
		var sets []uint32
		for s := uint32(0); s < n; s++ {
			if rng.IntN(3) == 0 {
				sets = append(sets, s)
			}
		}
		return sets
	}
	var edges []Edge
	for e := uint32(0); e < 40; e++ {
		for _, s := range randomSets() {
			edges = append(edges, Edge{Set: s, Elem: e})
		}
	}
	ss := NewSlotSets(MustFromEdges(n, 40, edges))

	type version struct {
		g    *Graph
		want *Graph // the present elements' edges, same ids
	}
	present := map[uint32][]uint32{} // slot → its sets
	g0 := MustFromEdges(n, 40, edges)
	for e := 0; e < 40; e++ {
		if sets := g0.Elem(e); len(sets) > 0 {
			present[uint32(e)] = sets
		}
	}
	var versions []version
	take := func() {
		var es []Edge
		for slot, sets := range present {
			for _, s := range sets {
				es = append(es, Edge{Set: s, Elem: slot})
			}
		}
		g := ss.Graph()
		versions = append(versions, version{g: g, want: MustFromEdges(n, g.NumElems(), es)})
	}
	check := func() {
		t.Helper()
		for vi, v := range versions {
			g, want := v.g, v.want
			if g.NumEdges() != want.NumEdges() || g.CoveredElems() != want.CoveredElems() {
				t.Fatalf("version %d: %d edges / %d elements, want %d / %d",
					vi, g.NumEdges(), g.CoveredElems(), want.NumEdges(), want.CoveredElems())
			}
			if !slices.Equal(g.Edges(nil), want.Edges(nil)) {
				t.Fatalf("version %d: edges differ", vi)
			}
			for e := 0; e < g.NumElems(); e++ {
				if !slices.Equal(g.Elem(e), want.Elem(e)) {
					t.Fatalf("version %d: element %d lists %v, want %v", vi, e, g.Elem(e), want.Elem(e))
				}
			}
			for s := 0; s < n; s++ {
				if g.SetLen(s) != want.SetLen(s) || g.Coverage([]int{s}) != want.SetLen(s) {
					t.Fatalf("version %d: set %d", vi, s)
				}
				for _, e := range g.Set(s) {
					if g.Contains(s, e) != want.Contains(s, e) {
						t.Fatalf("version %d: Contains(%d, %d)", vi, s, e)
					}
				}
			}
			for _, cov := range []CoverageEvaluator{NewCoverer(g), NewBitsetCoverer(g)} {
				for round := 0; round < 2; round++ {
					ref := NewCoverer(want)
					for s := 0; s < n; s++ {
						if cov.Marginal(s) != ref.Marginal(s) {
							t.Fatalf("version %d, %T: marginal of set %d", vi, cov, s)
						}
						if cov.Add(s) != ref.Add(s) {
							t.Fatalf("version %d, %T: covered after set %d", vi, cov, s)
						}
					}
					cov.Reset()
				}
			}
		}
	}
	take()
	for step := 0; step < 60; step++ {
		if rng.IntN(2) == 0 && len(present) > 0 {
			for slot, sets := range present { // any one
				ss.Remove(slot, sets)
				delete(present, slot)
				break
			}
		} else {
			sets := randomSets()
			slot := ss.Add(sets)
			if len(sets) > 0 {
				present[slot] = sets
			}
		}
		take()
		check()
	}
	if all, absent := ss.Entries(); absent == 0 || absent >= all {
		t.Fatalf("%d of %d entries absent", absent, all)
	}
}
