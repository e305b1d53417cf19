package server

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

// TestWeightedRefreshThawsNothing: the weighted refresh — every shard
// freezes, the cuts merge, the merged state is materialized — builds a
// fixed number of arrays per class view and no sketch, so its allocation
// count is a small multiple of shards × classes however many elements the
// banks keep. One thawed class alone would allocate a slot list per kept
// element.
func TestWeightedRefreshThawsNothing(t *testing.T) {
	const n, m, k, shards = 40, 20000, 4, 3
	cfg := weightedTestConfig(n, m, k, 5, shards)
	mode, err := cfg.EngineMode()
	if err != nil {
		t.Fatal(err)
	}
	edges := stream.Drain(stream.Shuffled(workload.Uniform(n, m, 0.05, 7).G, 1))
	states := make([]ShardState, shards)
	for i := range states {
		if states[i], err = mode.NewShardState(); err != nil {
			t.Fatal(err)
		}
		states[i].AddEdges(edges[i*len(edges)/shards : (i+1)*len(edges)/shards])
	}
	var snap *Snapshot
	allocs := testing.AllocsPerRun(5, func() {
		cuts := make([]FrozenState, shards)
		for i, st := range states {
			cuts[i] = st.Freeze(nil)
		}
		if snap, err = MergeSnapshot(mode, 1, int64(len(edges)), cuts); err != nil {
			t.Fatal(err)
		}
	})
	classes, elems := snap.Bank().Classes(), snap.elements()
	// Per class: a view of four arrays and two scratch lists per shard cut,
	// the merged view and its cursors; then the union's arrays and the
	// cover index.
	if limit := float64(10*(shards+1)*classes + 40); allocs > limit || elems < 10*int(limit) {
		t.Fatalf("a refresh of %d shards × %d classes keeping %d elements allocated %.0f times (limit %.0f)",
			shards, classes, elems, allocs, limit)
	}
}
