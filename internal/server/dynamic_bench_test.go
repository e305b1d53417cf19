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
