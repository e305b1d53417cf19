package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/bipartite"
)

// TestBarNeverRisesAndAddDroppedEqualsAddEdges is what a caller that drops
// edges in a sketch's stead rests on. Over random schedules of AddEdges,
// LowerBar, MergeView, Cut and shrink the bar never rises; and a twin that
// reads the hash half of its bar a few steps late, drops every edge whose
// element hashes strictly above it, and reports those with AddDropped ends
// every step with the Stats, the Freeze bytes and the cuts of the sketch
// that was handed every edge. Degree caps that bind and caps that do not.
func TestBarNeverRisesAndAddDroppedEqualsAddEdges(t *testing.T) {
	const (
		numSets  = 16
		numElems = 3000
		steps    = 120
		lag      = 3 // steps between reading the bar and dropping against it
	)
	for _, degCap := range []int{2, numSets + 1} {
		for seed := uint64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("D=%d/seed=%d", degCap, seed)
			params := smallParams(numSets, 3, 120, seed)
			params.DegreeCap = degCap
			rng := rand.New(rand.NewPCG(seed, uint64(degCap)))
			ref, twin, peer := MustNewSketch(params), MustNewSketch(params), MustNewSketch(params)
			prio := twin.Priority().Of
			randomEdges := func(n int) []bipartite.Edge {
				out := make([]bipartite.Edge, n)
				for i := range out {
					out[i] = bipartite.Edge{Set: uint32(rng.IntN(numSets)), Elem: uint32(rng.IntN(numElems))}
				}
				return out
			}
			barHashes := []uint64{} // the twin's bar hash as read after each step
			readBar := func() uint64 {
				if hash, _, ok := twin.Bar(); ok {
					return hash
				}
				return math.MaxUint64
			}
			var dropped int64
			type bar struct {
				hash uint64
				elem uint32
				ok   bool
			}
			lastBar := func(s *Sketch) bar { h, e, ok := s.Bar(); return bar{h, e, ok} }
			prevRef, prevTwin := lastBar(ref), lastBar(twin)
			for step := 0; step < steps; step++ {
				var op string
				switch r := rng.IntN(10); {
				case r < 5:
					op = "AddEdges"
					batch := randomEdges(rng.IntN(300))
					stale := uint64(math.MaxUint64)
					if len(barHashes) >= lag {
						stale = barHashes[len(barHashes)-lag]
					}
					ref.AddEdges(batch)
					kept := batch[:0:0]
					n := int64(0)
					for _, e := range batch {
						if prio(e.Elem) > stale {
							n++
							continue
						}
						kept = append(kept, e)
					}
					twin.AddDropped(n)
					twin.AddEdges(kept)
					dropped += n
				case r < 6:
					op = "LowerBar"
					v := ref.Freeze()
					if len(v.elems) == 0 {
						continue
					}
					i := len(v.elems)/2 + rng.IntN(len(v.elems)-len(v.elems)/2)
					ref.LowerBar(v.hashes[i], v.elems[i])
					twin.LowerBar(v.hashes[i], v.elems[i])
				case r < 7:
					op = "MergeView"
					peer.AddEdges(randomEdges(rng.IntN(400)))
					v := peer.Freeze()
					if err := ref.MergeView(v); err != nil {
						t.Fatal(err)
					}
					if err := twin.MergeView(v); err != nil {
						t.Fatal(err)
					}
				case r < 9:
					op = "Cut"
					delta := rng.IntN(2) == 0
					if got, want := viewBytes(twin.Cut(delta)), viewBytes(ref.Cut(delta)); !bytes.Equal(got, want) {
						t.Fatalf("%s step %d: the twin's Cut(%v) differs", name, step, delta)
					}
				default:
					op = "shrink"
					ref.shrink()
					twin.shrink()
				}
				for _, s := range []struct {
					name string
					sk   *Sketch
					prev *bar
				}{{"ref", ref, &prevRef}, {"twin", twin, &prevTwin}} {
					now := lastBar(s.sk)
					if s.prev.ok && (!now.ok || priorityLess(s.prev.hash, s.prev.elem, now.hash, now.elem)) {
						t.Fatalf("%s step %d (%s): %s's bar rose from %+v to %+v", name, step, op, s.name, *s.prev, now)
					}
					*s.prev = now
				}
				if got, want := twin.Stats(), ref.Stats(); got != want {
					t.Fatalf("%s step %d (%s): twin stats %+v, want %+v", name, step, op, got, want)
				}
				if !bytes.Equal(viewBytes(twin.Freeze()), viewBytes(ref.Freeze())) {
					t.Fatalf("%s step %d (%s): twin Freeze differs (%s)", name, step, op, viewsDiffer(twin.Freeze(), ref.Freeze()))
				}
				barHashes = append(barHashes, readBar())
			}
			if dropped == 0 {
				t.Fatalf("%s: the twin dropped nothing; the schedule tests nothing", name)
			}
		}
	}
}
