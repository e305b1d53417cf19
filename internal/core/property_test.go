package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Property tests over randomized tiny instances: for arbitrary edge sets,
// arbitrary budgets and arbitrary arrival orders, the streaming
// construction must (1) equal the offline construction, (2) keep a
// hash-prefix of the elements, and (3) respect budget and degree cap.

type propInstance struct {
	g      *bipartite.Graph
	params Params
	order  uint64
}

func decodeInstance(seed uint64, budgetRaw, capRaw uint8) propInstance {
	rng := hashing.NewRNG(seed)
	n := 3 + rng.Intn(10)
	m := 5 + rng.Intn(60)
	var edges []bipartite.Edge
	count := 1 + rng.Intn(4*m)
	for i := 0; i < count; i++ {
		edges = append(edges, bipartite.Edge{
			Set:  uint32(rng.Intn(n)),
			Elem: uint32(rng.Intn(m)),
		})
	}
	g := bipartite.MustFromEdges(n, m, edges)
	budget := 1 + int(budgetRaw)%(g.NumEdges()+5)
	degCap := 1 + int(capRaw)%(n+2)
	return propInstance{
		g: g,
		params: Params{
			NumSets:    n,
			NumElems:   m,
			K:          1 + rng.Intn(3),
			Eps:        0.5,
			Seed:       rng.Uint64(),
			EdgeBudget: budget,
			DegreeCap:  degCap,
		},
		order: rng.Uint64(),
	}
}

func TestPropertyStreamingInvariants(t *testing.T) {
	check := func(seed uint64, budgetRaw, capRaw uint8) bool {
		pi := decodeInstance(seed, budgetRaw, capRaw)
		s := MustNewSketch(pi.params)
		feed(s, pi.g, pi.order)

		// Budget respected: edges in [min(budget, capped-input), budget+cap].
		if s.Edges() > pi.params.EdgeBudget+s.DegreeCap() {
			return false
		}
		// Degree cap respected, and kept edges exist in the input.
		for e := 0; e < pi.g.NumElems(); e++ {
			sets := s.SetsOf(uint32(e))
			if len(sets) > s.DegreeCap() {
				return false
			}
			for _, set := range sets {
				if !pi.g.Contains(int(set), uint32(e)) {
					return false
				}
			}
		}
		// Prefix property: no excluded element may strictly precede a
		// kept element in (hash, id) order.
		h := hashing.NewHasher(pi.params.Seed)
		var maxKeptH uint64
		var maxKeptID uint32
		kept := false
		for e := 0; e < pi.g.NumElems(); e++ {
			if s.Contains(uint32(e)) {
				hv := h.Hash(uint32(e))
				if !kept || priorityLess(maxKeptH, maxKeptID, hv, uint32(e)) {
					maxKeptH, maxKeptID = hv, uint32(e)
					kept = true
				}
			}
		}
		for e := 0; e < pi.g.NumElems(); e++ {
			if pi.g.ElemDegree(e) == 0 || s.Contains(uint32(e)) {
				continue
			}
			if kept && priorityLess(h.Hash(uint32(e)), uint32(e), maxKeptH, maxKeptID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStreamingEqualsOffline(t *testing.T) {
	// The cap ranges over 1..n+2, so it binds on some instances and not on
	// others; the sketches are equal byte for byte either way.
	check := func(seed uint64, budgetRaw, capRaw uint8) bool {
		pi := decodeInstance(seed, budgetRaw, capRaw)
		st := MustNewSketch(pi.params)
		feed(st, pi.g, pi.order)
		off, err := BuildOffline(pi.g, pi.params)
		if err != nil {
			return false
		}
		got, want := st.Freeze(), off.Freeze()
		got.edgesSeen, want.edgesSeen = 0, 0
		return bytes.Equal(viewBytes(got), viewBytes(want))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMergeEqualsDirect(t *testing.T) {
	// Splitting any edge set into two arbitrary halves and merging the
	// two sketches equals sketching the whole set, byte for byte, whether
	// the cap binds or not.
	check := func(seed uint64, budgetRaw, capRaw uint8, splitMask uint16) bool {
		pi := decodeInstance(seed, budgetRaw, capRaw)

		edges := stream.Drain(stream.Shuffled(pi.g, pi.order))
		var a, b []bipartite.Edge
		for i, e := range edges {
			if splitMask&(1<<(uint(i)%16)) != 0 {
				a = append(a, e)
			} else {
				b = append(b, e)
			}
		}
		direct := MustNewSketch(pi.params)
		for _, e := range edges {
			direct.AddEdge(e)
		}
		sa := MustNewSketch(pi.params)
		for _, e := range a {
			sa.AddEdge(e)
		}
		sb := MustNewSketch(pi.params)
		for _, e := range b {
			sb.AddEdge(e)
		}
		merged, err := MergeAll(pi.params, sa, sb)
		if err != nil {
			return false
		}
		got, want := merged.Freeze(), direct.Freeze()
		got.edgesSeen, want.edgesSeen = 0, 0
		return bytes.Equal(viewBytes(got), viewBytes(want))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
