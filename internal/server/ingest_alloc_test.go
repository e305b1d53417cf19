package server

import (
	"testing"

	"repro/internal/bipartite"
)

// allocBatch is one 1024-edge batch over 64 sets. Submitting the same
// batch repeatedly keeps the shard sketches in steady state (every edge
// after the first pass is a duplicate), so what AllocsPerRun sees is the
// ingest pipeline's own cost.
func allocBatch() []bipartite.Edge {
	edges := make([]bipartite.Edge, 1024)
	for i := range edges {
		edges[i] = bipartite.Edge{Set: uint32(i % 64), Elem: uint32(i * 7)}
	}
	return edges
}

func skipAllocPinsUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
}

// TestInsertOnlyIngestOpsAllocsLikeIngest: an insert-only op batch takes
// the Ingest path without first being copied into a fresh []Edge, so in
// steady state it costs no more allocations than Ingest of the same
// edges. Each run ends on a Stats call — a barrier through every shard
// mailbox — so the shards' share of the work is inside the measurement
// for both entry points alike.
func TestInsertOnlyIngestOpsAllocsLikeIngest(t *testing.T) {
	skipAllocPinsUnderRace(t)
	e, err := New(Config{NumSets: 64, K: 4, Eps: 0.5, Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	edges := allocBatch()
	ops := bipartite.Inserts(edges)
	measure := func(submit func() (int, error)) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := submit(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Stats(); err != nil {
				t.Fatal(err)
			}
		})
	}
	measure(func() (int, error) { return e.Ingest(edges) }) // fill the pool
	viaEdges := measure(func() (int, error) { return e.Ingest(edges) })
	viaOps := measure(func() (int, error) { return e.IngestOps(ops) })
	if viaOps > viaEdges {
		t.Fatalf("insert-only IngestOps allocates %.0f times per batch, Ingest %.0f", viaOps, viaEdges)
	}
}

// TestWALReplayAllocsPerFrameNotPerSubBatch: recovery routes every
// logged frame into the same pooled sub-batch buffers live ingest uses,
// so replaying an insert-only log into a sketch engine allocates per
// frame at most (the route table), never per routed sub-batch. Measured
// as a slope between a short and a long log of the same batch, which
// cancels what recovery costs regardless of length (opening the log,
// growing the sketches on the first frame).
func TestWALReplayAllocsPerFrameNotPerSubBatch(t *testing.T) {
	skipAllocPinsUnderRace(t)
	const shards = 4
	edges := allocBatch()
	replayAllocs := func(frames int) float64 {
		cfg := Config{NumSets: 64, K: 4, Eps: 0.5, Seed: 3, Shards: shards,
			WAL: &WALConfig{Dir: t.TempDir(), Fsync: "off"}}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if _, err := e.Ingest(edges); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := e.IngestedEdges(), int64(frames*len(edges)); got != want {
				t.Fatalf("recovered %d edges, want %d", got, want)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 100, 500
	perFrame := (replayAllocs(long) - replayAllocs(short)) / (long - short)
	// Every frame hits every shard, so a per-sub-batch allocation would
	// show as a slope of at least shards.
	if perFrame >= shards/2 {
		t.Fatalf("replay allocates %.2f times per frame of %d sub-batches, want fewer than %d", perFrame, shards, shards/2)
	}
}
