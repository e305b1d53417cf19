package streamcover

import "testing"

// TestServiceIngestAllocsLikeEngineIngest: Edge is the engine's own edge
// type, so Service.Ingest hands the caller's batch straight to the
// engine and costs no more allocations per batch than Engine.Ingest of
// the same slice. The same 1024-edge batch is submitted repeatedly, which
// keeps the shard sketches in steady state, and each run ends on a Stats
// call, a barrier through every shard mailbox, so the shards' share of
// the work is inside the measurement for both entry points alike.
func TestServiceIngestAllocsLikeEngineIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	svc, err := NewService(64, ServiceOptions{Options: Options{Eps: 0.5, Seed: 3}, K: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	edges := make([]Edge, 1024)
	for i := range edges {
		edges[i] = Edge{Set: uint32(i % 64), Elem: uint32(i * 7)}
	}
	measure := func(submit func() error) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := submit(); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Stats(); err != nil {
				t.Fatal(err)
			}
		})
	}
	viaEngine := func() error {
		_, err := svc.Engine().Ingest(edges)
		return err
	}
	viaService := func() error { return svc.Ingest(edges) }
	measure(viaEngine) // fill the pools
	engineAllocs := measure(viaEngine)
	serviceAllocs := measure(viaService)
	if serviceAllocs > engineAllocs {
		t.Fatalf("Service.Ingest allocates %.0f times per batch, Engine.Ingest %.0f", serviceAllocs, engineAllocs)
	}
}
