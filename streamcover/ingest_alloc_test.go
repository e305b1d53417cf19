package streamcover

import "testing"

// TestServiceIngestAllocsLikeEngineIngest: Edge and Op are the engine's
// own types, so Service.Ingest and Service.ApplyOps hand the caller's
// batch straight to the engine and cost no more allocations per batch
// than Engine.Ingest and Engine.IngestOps of the same slice. The same
// 1024-record batch is submitted repeatedly, which keeps the shard
// states steady, and each run ends on a Stats call, a barrier through
// every shard mailbox, so the shards' share of the work is inside the
// measurement for both entry points alike.
func TestServiceIngestAllocsLikeEngineIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	opt := ServiceOptions{Options: Options{Eps: 0.5, Seed: 3}, K: 4, Shards: 4}
	edges := make([]Edge, 1024)
	ops := make([]Op, len(edges))
	for i := range edges {
		edges[i] = Edge{Set: uint32(i % 64), Elem: uint32(i * 7)}
		ops[i] = Op{Kind: OpInsert, Edge: edges[i]}
	}
	compare := func(t *testing.T, svc *Service, viaEngine, viaService func() error) {
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
		measure(viaEngine) // fill the pools
		engineAllocs := measure(viaEngine)
		serviceAllocs := measure(viaService)
		if serviceAllocs > engineAllocs {
			t.Fatalf("the service allocates %.0f times per batch, the engine %.0f", serviceAllocs, engineAllocs)
		}
	}

	t.Run("sketch Ingest", func(t *testing.T) {
		svc, err := NewService(64, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		compare(t, svc, func() error {
			_, err := svc.Engine().Ingest(edges)
			return err
		}, func() error { return svc.Ingest(edges) })
	})
	t.Run("dynamic ApplyOps", func(t *testing.T) {
		svc, err := NewDynamicService(64, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		compare(t, svc, func() error {
			_, err := svc.Engine().IngestOps(ops)
			return err
		}, func() error { return svc.ApplyOps(ops) })
	})
}
