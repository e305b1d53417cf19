package core

import (
	"bytes"
	"fmt"
	"testing"

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
