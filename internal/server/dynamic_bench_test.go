package server

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
)

// BenchmarkDynamicRefresh measures one fresh query on a dynamic engine at
// the bench harness's `tenants` sizes (2 shards, 16 × 16 386 cells, about
// 10.6 M edges live): a small op batch so the refresh is not idle, then
// drain → cut → sum → peel → the sketch's cut of the decoded level →
// greedy (the stage table in DESIGN.md §14).
func BenchmarkDynamicRefresh(b *testing.B) {
	cfg := Config{NumSets: 1000, K: 20, Eps: 0.3, Seed: 7, EdgeBudget: 40_000, Engine: ModeDynamic, Shards: 2}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ops := make([]bipartite.Op, 1024)
	fill := func(from uint64) {
		for i := range ops {
			h := hashing.SplitMix64(from + uint64(i))
			ops[i] = bipartite.Op{Edge: bipartite.Edge{Set: uint32(h>>40) % 1000, Elem: uint32(h) % 2_000_000}}
		}
	}
	for at := 0; at < 10_600_000; at += len(ops) {
		fill(uint64(at))
		if _, err := e.IngestOps(ops); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Algo: AlgoKCover, K: cfg.K, Refresh: true}
	if _, err := e.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(uint64(1<<40 + i*len(ops)))
		if _, err := e.IngestOps(ops); err != nil {
			b.Fatal(err)
		}
		res, err := e.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.PStar >= 1 {
			b.Fatal("decoded at level 0; the benchmark needs a subsampled level")
		}
	}
}

// BenchmarkDynamicChurn is the `tenants` workload's churn part in process:
// a dynamic engine of 2 shards at budget 40 000 takes a sliding window of
// epochs through IngestOps — insert epoch e, delete epoch e−2 — with one
// refresh after every pass, so three epochs are live, then two. One
// iteration is one pass of 2^20 ops and the refresh after it; the first
// four passes (three inserts and the first delete) run before the timer.
// It reports ns per churn op and the share of ops the router dropped
// above the floor.
func BenchmarkDynamicChurn(b *testing.B) {
	const epochOps = 1 << 20
	cfg := Config{NumSets: 1000, K: 20, Eps: 0.3, Seed: 7, EdgeBudget: 40_000, Engine: ModeDynamic, Shards: 2}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ops := make([]bipartite.Op, 1024)
	// pass k of the window: inserts of epochs 0, 1, 2, then the delete of
	// epoch j and the insert of epoch j+3 for j = 0, 1, …
	pass := func(k int) {
		kind, epoch := bipartite.OpInsert, k
		if k >= 3 {
			j := k - 3
			if epoch = j/2 + 3; j%2 == 0 {
				kind, epoch = bipartite.OpDelete, j/2
			}
		}
		for at := 0; at < epochOps; at += len(ops) {
			for i := range ops {
				h := hashing.SplitMix64(uint64(epoch)<<32 + uint64(at+i))
				ops[i] = bipartite.Op{Kind: kind, Edge: bipartite.Edge{Set: uint32(h>>40) % 1000, Elem: uint32(h) % (1 << 22)}}
			}
			if _, err := e.IngestOps(ops); err != nil {
				b.Fatal(err)
			}
		}
		snap, err := e.Refresh()
		if err != nil {
			b.Fatal(err)
		}
		if snap.pStar() >= 1 {
			b.Fatal("decoded at level 0; the benchmark needs a subsampled level")
		}
	}
	for k := range 4 {
		pass(k)
	}
	drops := e.Counters().BarDrops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(4 + i)
	}
	b.StopTimer()
	n := float64(b.N) * epochOps
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/churn-op")
	b.ReportMetric(float64(e.Counters().BarDrops-drops)/n, "dropped-share")
}
