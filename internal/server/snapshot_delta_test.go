package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bipartite"
)

// TestSnapshotDeltaFoldsIntoItsPredecessor: a published sketch snapshot
// whose shards all cut deltas describes itself as one delta on the snapshot
// published before it — Snapshot.Delta names that snapshot, and FoldDelta
// of its state and the delta is the new state byte for byte. A build with
// any full cut (an engine's first, the one after a failed merge) has no
// delta. Random ingest, refresh, checkpoint and failed-merge schedules on
// 1 and 3 shards, with a binding and a non-binding degree cap.
func TestSnapshotDeltaFoldsIntoItsPredecessor(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, capBinds := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("shards=%d/capBinds=%v/seed=%d", shards, capBinds, seed)
				t.Run(name, func(t *testing.T) { snapshotDeltaSchedule(t, deltaConfig(t, shards, capBinds), seed) })
			}
		}
	}
}

func snapshotDeltaSchedule(t *testing.T, cfg Config, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed+uint64(cfg.Shards)))
	probe := newProbeMode(t, cfg)
	e, err := newEngine(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var (
		sent   []bipartite.Edge
		prev   *Snapshot // the last published snapshot
		deltas int
	)
	for i := 0; i < 60; i++ {
		p := rng.IntN(10)
		if p < 5 {
			if _, err := e.Ingest(randomBatch(rng, cfg, &sent, 200)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		failing := p == 9
		probe.mu.Lock()
		if failing {
			probe.failBefore = 1
		}
		probe.mu.Unlock()
		fulls := e.fullCuts.Load()
		build := e.Refresh
		if p%2 == 0 {
			build = e.Checkpoint
		}
		snap, err := build()
		probe.mu.Lock()
		probe.failBefore = 0 // an idle skip never merged
		probe.mu.Unlock()
		if err != nil {
			if !failing {
				t.Fatalf("step %d: %v", i, err)
			}
			continue
		}
		if snap == prev {
			continue // idle
		}
		allDelta := prev != nil && e.fullCuts.Load() == fulls
		base, delta, ok := snap.Delta()
		if ok != allDelta {
			t.Fatalf("step %d: Delta reports ok=%v for a build whose cuts were all deltas: %v", i, ok, allDelta)
		}
		if ok {
			if base != prev.ID() {
				t.Fatalf("step %d: delta on %+v, the previous snapshot is %+v", i, base, prev.ID())
			}
			folded, err := FoldDelta(e.EngineMode(), prev.State(), delta)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(writeToBytes(t, folded), writeToBytes(t, snap.State())) {
				t.Fatalf("step %d: the previous state folded with the delta differs from the snapshot", i)
			}
			if again, _, _ := snap.Delta(); again != base {
				t.Fatal("a second Delta call named another base")
			}
			deltas++
		}
		prev = snap
	}
	if deltas == 0 {
		t.Fatal("the schedule published no delta")
	}
}

// TestSnapshotGraphIsBuiltOnFirstQuery: a snapshot of any mode that is
// only served — refreshed for a peer's pull, checkpointed, written — never
// materializes; its first query does, and every later query and Graph call
// shares that one. (The dynamic mode's L0 peel, whose failure is a refresh
// error, runs in the refresh as the end of its merge; the graph's cover
// index waits for the first query as on every mode.)
func TestSnapshotGraphIsBuiltOnFirstQuery(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	edges := make([]bipartite.Edge, 400)
	for i := range edges {
		edges[i] = bipartite.Edge{Set: uint32(rng.IntN(20)), Elem: uint32(rng.IntN(300))}
	}
	for _, name := range []ModeName{ModeSketch, ModeWeighted, ModeDynamic} {
		cfg := Config{NumSets: 20, K: 3, Eps: 0.5, Seed: 9, Shards: 2, Engine: name}
		if name == ModeWeighted {
			cfg.Weights = &WeightConfig{Default: 2}
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		snap, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		ServeState(e, httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.WriteSnapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		if snap.mat != nil {
			t.Fatalf("%s: graph built before the first query", name)
		}
		if _, err := e.Query(Query{Algo: AlgoKCover, K: 3}); err != nil {
			t.Fatal(err)
		}
		if snap.mat == nil {
			t.Fatalf("%s: the first query did not build the graph", name)
		}
		g, err := snap.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if g != snap.mat.graph {
			t.Fatalf("%s: Graph built a second graph", name)
		}
	}
}
