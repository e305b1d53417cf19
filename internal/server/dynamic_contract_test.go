package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/l0"
	"repro/internal/workload"
)

// The dynamic mode's contract: its snapshot is the H≤n sketch of the net
// edge set, cut at the bound of the L0 level that decoded. The sampler's
// level ℓ holds exactly the live elements of priority below 2^(64−ℓ), every
// edge of each, and the merge cuts that level with the sketch's rule, so
// the published view is byte for byte
//
//	BuildOffline(net edge set), LowerBar(1<<(64−ℓ), 0) when ℓ > 0
//
// whatever the schedule of inserts, deletes and refreshes, the shard count
// or the cluster fold that produced the sampler. The level is max(f, ℓ*):
// ℓ* is the shallowest level a sampler of the net multiset decodes, f the
// floor the engine's earlier refreshes raised, so the two differ only once
// the live set has shrunk by more than half since the floor last rose.

// contractSchedule is a random insert/delete schedule over g's edges: every
// edge is inserted once in shuffled order, some a second time, and live
// edges are deleted along the way, never below zero. A heavy schedule then
// retracts all but an eighth of what is live. It returns the ops in batches
// and the net multiplicity of every edge it touched.
func contractSchedule(g *bipartite.Graph, seed uint64, heavy bool) ([][]bipartite.Op, map[bipartite.Edge]int) {
	rng := rand.New(rand.NewPCG(seed, 91))
	var edges []bipartite.Edge
	for e := 0; e < g.NumElems(); e++ {
		for _, s := range g.Elem(e) {
			edges = append(edges, bipartite.Edge{Set: s, Elem: uint32(e)})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	net := make(map[bipartite.Edge]int)
	var live []bipartite.Edge // with repeats for multiplicity 2
	var ops []bipartite.Op
	insert := func(e bipartite.Edge) {
		ops = append(ops, bipartite.Op{Kind: bipartite.OpInsert, Edge: e})
		net[e]++
		live = append(live, e)
	}
	remove := func() {
		i := rng.IntN(len(live))
		d := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		ops = append(ops, bipartite.Op{Kind: bipartite.OpDelete, Edge: d})
		net[d]--
	}
	for _, e := range edges {
		insert(e)
		if rng.IntN(16) == 0 {
			insert(e)
		}
		if len(live) > 0 && rng.IntN(3) == 0 {
			remove()
		}
	}
	if heavy {
		for len(live) > len(edges)/8 {
			remove()
		}
	}
	var batches [][]bipartite.Op
	for len(ops) > 0 {
		n := min(len(ops), 1+rng.IntN(300))
		batches = append(batches, ops[:n])
		ops = ops[n:]
	}
	return batches, net
}

// offlineView is the contract's right-hand side: the H≤n sketch of the
// edges with positive net multiplicity, cut at level's bound, reporting
// edges consumed.
func offlineView(t *testing.T, params core.Params, numElems int, net map[bipartite.Edge]int, level int, edges int64) []byte {
	t.Helper()
	var live []bipartite.Edge
	for e, m := range net {
		if m > 0 {
			live = append(live, e)
		}
	}
	g, err := bipartite.FromEdges(params.NumSets, numElems, live)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := core.BuildOffline(g, params)
	if err != nil {
		t.Fatal(err)
	}
	if level > 0 {
		sk.LowerBar(1<<(64-level), 0)
	}
	sk.SetEdgesSeen(edges)
	return writeToBytes(t, sk.Freeze())
}

// netLevel is ℓ*: the level a floor-0 sampler of cfg's geometry holding
// the net multiset decodes at.
func netLevel(t *testing.T, cfg Config, net map[bipartite.Edge]int) int {
	t.Helper()
	sam := l0.NewSampler(cfg.DynamicParams())
	for e, m := range net {
		for range m {
			sam.Update(e.Set, e.Elem, 1)
		}
	}
	rec, err := sam.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rec.Level
}

// snapshotView returns a dynamic snapshot's view bytes and the level its
// sampler decodes at, read off the sampler itself.
func snapshotView(t *testing.T, snap *Snapshot) ([]byte, int) {
	t.Helper()
	d := snap.State().(*dynamicState)
	rec, err := d.sam.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return writeToBytes(t, d.view), rec.Level
}

func TestDynamicSnapshotIsTheSketchOfTheNetEdges(t *testing.T) {
	insts := []workload.Instance{
		workload.Uniform(40, 900, 0.05, 3),
		workload.Zipf(50, 1200, 80, 0.9, 0.7, 4),
		workload.PlantedKCover(40, 800, 5, 0.8, 30, 5),
		workload.UniformFixedSize(30, 700, 40, 6),
	}
	var subsampled, budgetCut, levelCut, floorCut int
	for _, inst := range insts {
		n, m := inst.G.NumSets(), inst.G.NumElems()
		for _, budget := range []int{48, 150, 400} {
			for _, heavy := range []bool{false, true} {
				seed := uint64(budget) + uint64(n)
				batches, net := contractSchedule(inst.G, seed, heavy)
				cfg := Config{NumSets: n, K: 4, Eps: 0.4, Seed: seed, NumElems: m, EdgeBudget: budget, Engine: ModeDynamic}
				params := cfg.Params()
				where := fmt.Sprintf("%s B=%d heavy=%v", inst.Name, budget, heavy)
				free := netLevel(t, cfg, net)

				for _, shards := range []int{1, 2, 3, 5} {
					cfg.Shards = shards
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewPCG(seed, uint64(shards)))
					for _, b := range batches {
						if _, err := e.IngestOps(b); err != nil {
							t.Fatal(err)
						}
						if rng.IntN(4) == 0 {
							// A refresh that fails to decode keeps the last snapshot;
							// only the final one is held to the contract.
							e.Refresh()
						}
					}
					floor := e.Counters().DynamicFloor
					snap, err := e.Refresh()
					e.Close()
					if err != nil {
						t.Fatalf("%s shards=%d: %v", where, shards, err)
					}
					got, level := snapshotView(t, snap)
					if want := max(floor, free); level != want {
						t.Fatalf("%s shards=%d: decoded level %d at floor %d, the net multiset decodes at %d: want %d", where, shards, level, floor, free, want)
					}
					if floor > free {
						floorCut++
					}
					if shards == 1 && level > 0 {
						subsampled++
						if snap.State().Stats().PStar < 1/float64(uint64(1)<<level) {
							budgetCut++
						} else {
							levelCut++
						}
					}
					if !bytes.Equal(got, offlineView(t, params, m, net, level, snap.IngestedEdges)) {
						t.Fatalf("%s shards=%d level %d: the snapshot's view is not the offline sketch of the net edges cut at the level", where, shards, level)
					}
				}

				// One cluster fold: the schedule split by element between two
				// nodes (a delete lands where its insert did), their published
				// states folded as a cluster view.
				var states []FrozenState
				var edges int64
				var mode Mode
				for node := uint32(0); node < 2; node++ {
					cfg.Shards = 2
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					mode = e.EngineMode()
					for _, b := range batches {
						var part []bipartite.Op
						for _, op := range b {
							if op.Edge.Elem%2 == node {
								part = append(part, op)
							}
						}
						if _, err := e.IngestOps(part); err != nil {
							t.Fatal(err)
						}
					}
					snap, err := e.Refresh()
					e.Close()
					if err != nil {
						t.Fatalf("%s node %d: %v", where, node, err)
					}
					states = append(states, snap.State())
					edges += snap.IngestedEdges
				}
				view, err := (&Engine{mode: mode}).MergeSnapshot(1, edges, nil, states)
				if err != nil {
					t.Fatalf("%s cluster fold: %v", where, err)
				}
				got, level := snapshotView(t, view)
				if !bytes.Equal(got, offlineView(t, params, m, net, level, edges)) {
					t.Fatalf("%s cluster fold level %d: the view is not the offline sketch of the net edges cut at the level", where, level)
				}
			}
		}
	}
	// The instances must reach both regimes of the cut: a level whose
	// prefix reaches the budget (p* from the sketch's own bar) and one
	// that does not (p* = 2^−ℓ); and the delete-heavy schedules must leave
	// a floor above the level the net multiset decodes at.
	if budgetCut == 0 || levelCut == 0 || floorCut == 0 {
		t.Fatalf("%d subsampled cases: %d cut by the budget, %d by the level bound; %d runs cut at the floor; want all three", subsampled, budgetCut, levelCut, floorCut)
	}
}
