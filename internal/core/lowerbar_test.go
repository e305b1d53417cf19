package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/workload"
)

// TestMergeViewsUnchangedByLowerBar is the soundness property behind the
// engine's bar feedback: shards that lower their bar to each merged bar
// as it is published produce, at every later merge, byte for byte the
// merged view of twins that never shed — with caps that bind and caps
// that do not, since below the bar a shed shard and its twin hold the
// same lists — while holding strictly less.
func TestMergeViewsUnchangedByLowerBar(t *testing.T) {
	generators := []workload.Instance{
		workload.Uniform(30, 2000, 0.03, 1),
		workload.Zipf(30, 3000, 600, 0.9, 0.7, 2),
		workload.PlantedKCover(30, 2000, 4, 0.8, 10, 3),
		workload.LargeSets(12, 3000, 0.2, 6),
	}
	const rounds = 6
	for gi, inst := range generators {
		g := inst.G
		for _, shards := range []int{2, 5} {
			for _, capBinds := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/capBinds=%v", inst.Name, shards, capBinds)
				params := smallParams(g.NumSets(), 3, g.NumEdges()/20, uint64(7*gi+shards))
				params.DegreeCap = g.MaxElemDegree() + 1
				if capBinds {
					params.DegreeCap = 2
				}
				shed, twin := make([]*Sketch, shards), make([]*Sketch, shards)
				for i := range shed {
					shed[i], twin[i] = MustNewSketch(params), MustNewSketch(params)
				}
				split := splitEdges(g, shards, uint64(gi)+11)
				for r := 0; r < rounds; r++ {
					views, twinViews := make([]*View, shards), make([]*View, shards)
					held, twinHeld := 0, 0
					for i, sh := range split {
						chunk := sh[r*len(sh)/rounds : (r+1)*len(sh)/rounds]
						shed[i].AddEdges(chunk)
						twin[i].AddEdges(chunk)
						views[i], twinViews[i] = shed[i].Freeze(), twin[i].Freeze()
						held += shed[i].Edges()
						twinHeld += twin[i].Edges()
					}
					got, err := MergeViews(params, int64(r), views...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := MergeViews(params, int64(r), twinViews...)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(stateBytes(t, got), stateBytes(t, want)) {
						t.Fatalf("%s round %d: merge of shed shards differs from the merge of their twins", name, r)
					}
					if !got.evicted {
						t.Fatalf("%s round %d: nothing evicted; the test sheds nothing", name, r)
					}
					if r > 0 && held >= twinHeld {
						t.Fatalf("%s round %d: shed shards hold %d edges, their twins %d", name, r, held, twinHeld)
					}
					hash, elem, _ := got.Bar()
					for _, s := range shed {
						s.LowerBar(hash, elem)
					}
				}
			}
		}
	}
}

// BenchmarkLowerBarShed is one shard's shed at a refresh, at mixed-fresh
// shape: shard 0 of a two-shard engine (the elements whose priority's low
// 32 bits route there), warmed on six epochs and shed to the prefix that
// holds half the 200 000-edge budget, as the first published bar leaves
// it, then fed the 85 000 routed edges of a new epoch that a refresh
// interval brings. Each iteration sheds a clone of that sketch to its
// new half-budget prefix; ns/shed-elem is the time per element evicted.
func BenchmarkLowerBarShed(b *testing.B) {
	params := foldBenchParams()
	prio := params.Priority()
	shard0 := func(elem uint32) bool { return uint64(uint32(prio.Of(elem)))*2>>32 == 0 }
	sk := MustNewSketch(params)
	epoch := make([]bipartite.Edge, len(foldBenchEpoch()))
	for ep := 0; ep < foldBenchEpochs; ep++ {
		sk.AddEdges(relabelEpoch(epoch, ep, shard0))
	}
	halfBudget := func() (uint64, uint32) {
		v := sk.Freeze()
		k, _ := slices.BinarySearch(v.off, int64(sk.Budget()/2))
		return v.hashes[k], v.elems[k]
	}
	sk.LowerBar(halfBudget())
	fresh := relabelEpoch(epoch, foldBenchEpochs, shard0)
	sk.AddEdges(fresh[:min(len(fresh), 85_000)])
	hash, elem := halfBudget()
	kept := sk.Elements()
	b.ReportAllocs()
	b.ResetTimer()
	shed := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := sk.Clone()
		b.StartTimer()
		c.LowerBar(hash, elem)
		shed += kept - c.Elements()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(1, shed)), "ns/shed-elem")
	b.ReportMetric(float64(shed)/float64(b.N), "shed-elems/op")
	b.ReportMetric(float64(kept), "kept-elems")
}
