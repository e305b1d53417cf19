package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestShardsShedAboveThePublishedBar holds the bar feedback to its two
// promises across shard counts and an interleaving of ingest, refresh,
// checkpoint and restore. Bytes: after every refresh the merged state is
// byte for byte the sketch one machine that never sheds builds over the
// same edges. Space: from the second refresh of an engine instance on
// (the first, and the first after a restore, have no published bar to
// use) the shards between them hold about one budget — Σ EdgesKept ≤
// B + N·(D + slack) — not N of them.
func TestShardsShedAboveThePublishedBar(t *testing.T) {
	inst := workload.Zipf(40, 20000, 4000, 0.9, 0.7, 3)
	edges := stream.Drain(stream.Shuffled(inst.G, 5))
	// Step 0 takes half the stream, so the first refresh finds every shard
	// full and p* settled; the later steps are the steady state the bound
	// is about, where little arrives below the bar between two refreshes.
	const steps = 12
	cuts := []int{0, len(edges) / 2}
	for i := 1; i < steps; i++ {
		cuts = append(cuts, len(edges)/2+i*(len(edges)-len(edges)/2)/(steps-1))
	}

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// K = 2 puts the degree cap at NumSets: it never binds, so the
			// merge is exact whatever the shard split (DESIGN.md §6).
			cfg := Config{NumSets: 40, K: 2, Eps: 0.4, Seed: 21, NumElems: 20000, EdgeBudget: 600, Shards: shards}
			params := cfg.Params()
			budget, degCap := params.EffectiveEdgeBudget(), params.EffectiveDegreeCap()
			slack := max(budget/8, 128) // core.Sketch's deferred-shrink overshoot
			bound := budget + shards*(degCap+slack)

			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.Close() }()
			whole := core.MustNewSketch(params)
			path := filepath.Join(t.TempDir(), "state.skch")

			sawFull := false
			refreshes := 0 // of this engine instance
			for step := 0; step < steps; step++ {
				batch := edges[cuts[step]:cuts[step+1]]
				if _, err := e.Ingest(batch); err != nil {
					t.Fatal(err)
				}
				whole.AddEdges(batch)

				var snap *Snapshot
				switch step % 4 {
				case 1:
					snap, err = e.Checkpoint()
				case 3:
					snap, err = CheckpointEngine(e, path)
				default:
					snap, err = e.Refresh()
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				refreshes++
				var got, want bytes.Buffer
				if err := snap.WriteState(&got); err != nil {
					t.Fatal(err)
				}
				if _, err := whole.WriteTo(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("step %d: merged state differs from the one-machine sketch (%d vs %d bytes)",
						step, got.Len(), want.Len())
				}

				st, err := e.Stats()
				if err != nil {
					t.Fatal(err)
				}
				kept := 0
				for _, sh := range st.ShardStats {
					kept += sh.EdgesKept
				}
				if c := e.Counters(); c.ShardKeptEdges != int64(kept) || c.SnapshotKeptEdges != int64(st.SnapshotKept) {
					t.Fatalf("step %d: counters report %d shard / %d snapshot kept edges, stats %d / %d",
						step, c.ShardKeptEdges, c.SnapshotKeptEdges, kept, st.SnapshotKept)
				}
				if kept >= shards*budget {
					sawFull = true // every shard full: the state shedding exists for
				}
				if refreshes >= 2 && kept > bound {
					t.Fatalf("step %d (refresh %d of this instance): shards hold %d edges, want ≤ B + N·(D + slack) = %d",
						step, refreshes, kept, bound)
				}

				if step == 7 { // restart from the checkpoint file just written
					e.Close()
					if e, err = restoreEngine(cfg, path); err != nil {
						t.Fatal(err)
					}
					refreshes = 0
				}
			}
			if shards > 1 && !sawFull {
				t.Fatal("no first refresh ever saw full shards; the bound tests nothing")
			}
		})
	}
}

func restoreEngine(cfg Config, path string) (*Engine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewFromSnapshot(bytes.NewReader(data), cfg)
}

// TestDynamicShardsShedOnlyBelowTheFloor: a dynamic shard sheds the levels
// below the published floor and nothing else, because deletes move the
// decoded level back up. An engine refreshed and checkpointed between
// every phase of an insert-then-delete stream: the floor it publishes is
// one level below the deepest level decoded so far, and a refresh leaves
// each shard's op accounting as it found it and the shard holding
// (Levels − f) × Cells cells, f the floor published before it (the one its
// freeze request carried). When phase 2 retracts all but a twentieth, the cut comes back up
// to the floor and no further, where a one-shard engine that never
// refreshed in between decodes shallower, and the final snapshot is the
// offline sketch of the net edges cut at the floor.
func TestDynamicShardsShedOnlyBelowTheFloor(t *testing.T) {
	inst := workload.Zipf(40, 3000, 600, 0.9, 0.7, 8)
	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	cfg := Config{NumSets: 40, K: 4, Eps: 0.4, Seed: 5, NumElems: 3000, EdgeBudget: 100, Engine: ModeDynamic, Shards: 4}
	keep := len(edges) / 20
	phases := [][]bipartite.Op{bipartite.Inserts(edges), bipartite.Deletes(edges[keep:]), bipartite.Inserts(edges[keep : 2*keep])}
	net := make(map[bipartite.Edge]int)
	for _, e := range edges[:2*keep] {
		net[e] = 1
	}

	often, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer often.Close()
	one := cfg
	one.Shards = 1
	never, err := New(one)
	if err != nil {
		t.Fatal(err)
	}
	defer never.Close()

	sp := cfg.DynamicParams()
	levels := make([]int, len(phases))
	floor := 0
	var last *Snapshot
	for i, ops := range phases {
		if _, err := often.IngestOps(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := never.IngestOps(ops); err != nil {
			t.Fatal(err)
		}
		before, err := often.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if last, err = often.Refresh(); err != nil {
			t.Fatal(err)
		}
		_, levels[i] = snapshotView(t, last)
		carried := floor
		floor = max(floor, levels[i]-dynamicFloorMargin)
		if _, err := often.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after, err := often.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got := often.Counters().DynamicFloor; got != floor {
			t.Fatalf("phase %d: published floor %d after decoding levels %v, want %d", i, got, levels[:i+1], floor)
		}
		for j, a := range after.ShardStats {
			if want := int64((sp.Levels - carried) * sp.Cells * 32); a.Bytes != want {
				t.Fatalf("phase %d shard %d: %d resident bytes at floor %d, want %d", i, j, a.Bytes, carried, want)
			}
			if a.Bytes = before.ShardStats[j].Bytes; a != before.ShardStats[j] {
				t.Fatalf("phase %d: a refresh changed shard %d's accounting: %v -> %v", i, j, before.ShardStats[j], a)
			}
		}
	}
	if !(levels[0] > 1 && levels[1] == levels[0]-dynamicFloorMargin && levels[2] == levels[1]) {
		t.Fatalf("decoded levels %v: the test needs a cut that moves back up across the deletes, to the floor", levels)
	}
	snap, err := never.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if _, l := snapshotView(t, snap); l >= floor {
		t.Fatalf("the engine that never refreshed decodes at level %d, not above floor %d: the floor binds nothing", l, floor)
	}
	got, _ := snapshotView(t, last)
	if !bytes.Equal(got, offlineView(t, cfg.Params(), inst.G.NumElems(), net, floor, last.IngestedEdges)) {
		t.Fatal("the final snapshot is not the offline sketch of the net edges cut at the floor")
	}
}
