package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bipartite"
)

// TestDeltaCutEqualsFullFreeze is the property the engine's delta refresh
// rests on: folding each shard's Cut(true) into the view that folded its
// previous cut gives, byte for byte, the merge of full freezes — and for a
// lone sketch its own Freeze. The streams are random with duplicates and
// re-sent edges (a re-sent edge may reach another shard), the degree cap
// binds (D = 3) and does not, and the budget is small enough that a shard
// evicts on its own between two cuts. Half the seeds also shed to the
// published bar first, as the engine's shards do; the equality needs only
// that the published view, and so its bar, is one of the inputs.
func TestDeltaCutEqualsFullFreeze(t *testing.T) {
	const (
		numSets  = 24
		numElems = 4000
		rounds   = 30
	)
	for _, shards := range []int{1, 3} {
		for _, degCap := range []int{3, numSets + 1} {
			for seed := uint64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("shards=%d/D=%d/seed=%d", shards, degCap, seed)
				params := smallParams(numSets, 3, 150, seed)
				params.DegreeCap = degCap
				rng := rand.New(rand.NewPCG(seed, uint64(shards*100+degCap)))
				sks := make([]*Sketch, shards)
				for i := range sks {
					sks[i] = MustNewSketch(params)
				}
				var (
					sent      []bipartite.Edge
					published *View
					evictions int
				)
				for r := 0; r < rounds; r++ {
					batches := make([][]bipartite.Edge, shards)
					for n := rng.IntN(400); n > 0; n-- {
						e := bipartite.Edge{Set: uint32(rng.IntN(numSets)), Elem: uint32(rng.IntN(numElems))}
						if len(sent) > 0 && rng.IntN(4) == 0 {
							e = sent[rng.IntN(len(sent))]
						}
						sent = append(sent, e)
						i := rng.IntN(shards)
						batches[i] = append(batches[i], e)
					}
					fulls := make([]*View, shards)
					inputs := []*View{published} // nil the first round, which MergeViews skips
					for i, sk := range sks {
						before := sk.PStar()
						sk.AddEdges(batches[i])
						if sk.PStar() < before {
							evictions++
						}
						if published != nil && seed%2 == 1 {
							if hash, elem, ok := published.Bar(); ok {
								sk.LowerBar(hash, elem)
							}
						}
						fulls[i] = sk.Freeze()
						inputs = append(inputs, sk.Cut(published != nil))
					}
					want, err := MergeViews(params, int64(len(sent)), fulls...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := MergeViews(params, int64(len(sent)), inputs...)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(viewBytes(got), viewBytes(want)) {
						t.Fatalf("%s round %d: base ∪ deltas differs from the merge of full freezes (%s)", name, r, viewsDiffer(got, want))
					}
					if shards == 1 {
						lone := sks[0].Freeze()
						lone.edgesSeen = int64(len(sent))
						if !bytes.Equal(viewBytes(got), viewBytes(lone)) {
							t.Fatalf("%s round %d: published ∪ delta differs from the sketch's own Freeze (%s)", name, r, viewsDiffer(got, lone))
						}
					}
					published = got
				}
				if shards == 1 && evictions < rounds/2 {
					t.Fatalf("%s: the lone sketch evicted on its own in only %d rounds; the budget is too large", name, evictions)
				}
			}
		}
	}
}

// TestCutForgetsAndCloneKeepsTheBookkeeping pins what Cut leaves behind:
// a second delta right after a cut is empty, a stored duplicate marks
// nothing, an element evicted after it was marked is not in the delta, and
// a clone (or a thawed view) re-marks exactly like its original.
func TestCutForgetsAndCloneKeepsTheBookkeeping(t *testing.T) {
	params := smallParams(8, 2, 1<<20, 5)
	params.DegreeCap = 9
	s := MustNewSketch(params)
	s.AddEdges([]bipartite.Edge{{Set: 1, Elem: 10}, {Set: 2, Elem: 10}, {Set: 1, Elem: 11}})

	clone := s.Clone()
	if d := s.Cut(true); len(d.elems) != 2 || len(d.sets) != 3 {
		t.Fatalf("first delta holds %d elements / %d edges, want everything (2 / 3)", len(d.elems), len(d.sets))
	}
	if d := s.Cut(true); len(d.elems) != 0 {
		t.Fatalf("delta right after a cut holds %d elements, want 0", len(d.elems))
	}
	s.AddEdge(bipartite.Edge{Set: 1, Elem: 10}) // a duplicate stores nothing
	if d := s.Cut(true); len(d.elems) != 0 {
		t.Fatalf("a duplicate edge marked %d elements", len(d.elems))
	}
	s.AddEdge(bipartite.Edge{Set: 3, Elem: 11})
	d := s.Cut(true)
	if len(d.elems) != 1 || d.elems[0] != 11 || !slices.Equal(d.sets, []uint32{1, 3}) {
		t.Fatalf("delta after one new edge = elems %v sets %v, want element 11 with its whole list [1 3]", d.elems, d.sets)
	}
	if d.edgesSeen != s.edgesSeen {
		t.Fatalf("delta reports %d consumed edges, the sketch %d", d.edgesSeen, s.edgesSeen)
	}

	// The clone was taken with both elements marked and must still say so,
	// and keep marking: a copied flag without the copied list would hide
	// these slots from every later delta.
	clone.AddEdge(bipartite.Edge{Set: 4, Elem: 10})
	if d := clone.Cut(true); len(d.elems) != 2 || len(d.sets) != 4 {
		t.Fatalf("clone's delta holds %d elements / %d edges, want 2 / 4", len(d.elems), len(d.sets))
	}
	clone.AddEdge(bipartite.Edge{Set: 5, Elem: 10})
	if d := clone.Cut(true); len(d.elems) != 1 || len(d.sets) != 4 {
		t.Fatalf("clone's second delta holds %d elements / %d edges, want element 10 with 4 edges", len(d.elems), len(d.sets))
	}
	thawed := MustNewSketch(params)
	if err := thawed.MergeView(s.Freeze()); err != nil {
		t.Fatal(err)
	}
	if d := thawed.Cut(true); len(d.elems) != 2 {
		t.Fatalf("a thawed view marked %d of its 2 elements", len(d.elems))
	}

	// Marked, then evicted: the element is gone from the sketch and must
	// not come back through the delta.
	tight := smallParams(8, 2, 4, 5)
	tight.DegreeCap = 9
	e := MustNewSketch(tight)
	for elem := uint32(0); elem < 200; elem++ {
		e.AddEdge(bipartite.Edge{Set: elem % 8, Elem: elem})
	}
	if len(e.dirty) > len(e.slots) {
		t.Fatalf("dirty list holds %d entries over %d slots", len(e.dirty), len(e.slots))
	}
	d = e.Cut(true)
	if !bytes.Equal(viewBytes(d), viewBytes(e.Freeze())) {
		t.Fatalf("first delta of an evicting sketch differs from its Freeze (%s)", viewsDiffer(d, e.Freeze()))
	}
}

// heapDiffers reports how s's eviction heap breaks its invariants, or "":
// a max-heap by (hash, elem) whose entries carry their slot's priority,
// and whose members are exactly the slots flagged kept, each the one the
// element index names.
func heapDiffers(s *Sketch) string {
	for i, x := range s.heap {
		if p := (i - 1) / 2; i > 0 && x.above(s.heap[p]) {
			return fmt.Sprintf("entry %d (elem %d) is above its parent %d (elem %d)", i, x.elem, p, s.heap[p].elem)
		}
		sl := &s.slots[x.slot]
		if !sl.kept || sl.hash != x.hash || sl.elem != x.elem {
			return fmt.Sprintf("entry %d names slot %d (kept %v, elem %d), not elem %d", i, x.slot, sl.kept, sl.elem, x.elem)
		}
		if si, ok := s.index[x.elem]; !ok || si != x.slot {
			return fmt.Sprintf("entry %d: elem %d is at slot %d in the index, not %d", i, x.elem, si, x.slot)
		}
	}
	kept := 0
	for i := range s.slots {
		if s.slots[i].kept {
			kept++
		}
	}
	if kept != len(s.heap) || kept != len(s.index) {
		return fmt.Sprintf("%d slots flagged kept, %d heap entries, %d indexed elements", kept, len(s.heap), len(s.index))
	}
	return ""
}

// TestStatsBytesEqualsTheSlotScan holds the byte total Stats reports —
// kept as a field, since a shard answers every freeze, stats request and
// metrics scrape with it from inside its mailbox — equal to the scan over
// the slot array it replaced, freed slots included, along random schedules
// of everything that allocates, grows, reuses or copies a set list. The
// degree cap both binds below and clears the 16 ids past which addToSlot
// finds an id's place by binary search, and the budget is small enough
// that slots are freed and reused throughout. After every step the
// eviction heap also holds its invariants (heapDiffers).
func TestStatsBytesEqualsTheSlotScan(t *testing.T) {
	const (
		numSets  = 40
		numElems = 3000
	)
	scan := func(s *Sketch) int64 {
		var bytes int64
		for i := range s.slots {
			bytes += 24 + 4*int64(cap(s.slots[i].sets))
		}
		return bytes + int64(len(s.heap))*16 + int64(len(s.index))*12
	}
	for _, degCap := range []int{3, numSets + 1} {
		for seed := uint64(1); seed <= 6; seed++ {
			params := smallParams(numSets, 3, 300, seed)
			params.DegreeCap = degCap
			rng := rand.New(rand.NewPCG(seed, uint64(degCap)))
			batch := func() []bipartite.Edge {
				edges := make([]bipartite.Edge, rng.IntN(500))
				for i := range edges {
					// A few hot elements collect long lists.
					edges[i] = bipartite.Edge{Set: uint32(rng.IntN(numSets)), Elem: uint32(rng.IntN(numElems))}
					if rng.IntN(3) == 0 {
						edges[i].Elem = uint32(rng.IntN(8))
					}
				}
				return edges
			}
			s, other := MustNewSketch(params), MustNewSketch(params)
			for step := 0; step < 200; step++ {
				var op string
				switch rng.IntN(6) {
				case 0, 1:
					op = "AddEdges"
					s.AddEdges(batch())
				case 2:
					op = "LowerBar"
					if len(s.heap) > 0 {
						x := s.heap[rng.IntN(len(s.heap))]
						s.LowerBar(x.hash, x.elem)
					}
				case 3:
					op = "Cut"
					s.Cut(rng.IntN(2) == 0)
				case 4:
					op = "Clone"
					s = s.Clone()
				case 5:
					op = "MergeView"
					other.AddEdges(batch())
					if err := s.MergeView(other.Freeze()); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := s.Stats().Bytes, scan(s); got != want {
					t.Fatalf("D=%d seed=%d step %d (%s): Stats reports %d bytes, the slot scan %d",
						degCap, seed, step, op, got, want)
				}
				if d := heapDiffers(s); d != "" {
					t.Fatalf("D=%d seed=%d step %d (%s): eviction heap: %s", degCap, seed, step, op, d)
				}
			}
			if len(s.free) == 0 && len(s.slots) == len(s.index) {
				t.Fatalf("D=%d seed=%d: the schedule never freed a slot", degCap, seed)
			}
		}
	}
}
