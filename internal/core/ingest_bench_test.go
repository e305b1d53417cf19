package core

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The BenchmarkIngest* family measures Algorithm 2's update cost on the
// dense-degree workload (LargeSets: every element belongs to ~n·frac
// sets), the regime the paper highlights and the one where per-edge
// overheads — hashing, index lookups, sorted inserts, per-edge shrink —
// dominate. BenchmarkIngestStream* build a fresh sketch per iteration
// (the one-pass cost); BenchmarkIngestSingle/Batch measure the converged
// steady state. bench/ measures the batched path at service scale
// (ladder rows core.add_edges.* and core.offline_pass.ns_per_edge).

func denseIngest() ([]bipartite.Edge, Params) {
	inst := workload.LargeSets(200, 20000, 0.3, 1)
	edges := stream.Drain(stream.Shuffled(inst.G, 1))
	params := Params{NumSets: 200, NumElems: 20000, K: 10, Eps: 0.3,
		Seed: 7, EdgeBudget: 40 * 200}
	return edges, params
}

// BenchmarkIngestSingle measures steady-state edge-at-a-time ingest
// (AddEdge) on the dense-degree workload.
func BenchmarkIngestSingle(b *testing.B) {
	edges, params := denseIngest()
	b.ReportAllocs()
	b.ResetTimer()
	s := MustNewSketch(params)
	for i := 0; i < b.N; i++ {
		s.AddEdge(edges[i%len(edges)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkIngestBatch measures steady-state batched ingest (AddEdges in
// 1024-edge batches) on the same workload; b.N counts edges.
func BenchmarkIngestBatch(b *testing.B) {
	edges, params := denseIngest()
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	s := MustNewSketch(params)
	done := 0
	for done < b.N {
		lo := done % len(edges)
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		if n := b.N - done; hi-lo > n {
			hi = lo + n
		}
		s.AddEdges(edges[lo:hi])
		done += hi - lo
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkIngestStreamSingle measures building a fresh sketch over the
// dense-degree stream one edge at a time.
func BenchmarkIngestStreamSingle(b *testing.B) {
	edges, params := denseIngest()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		s := MustNewSketch(params)
		for _, e := range edges {
			s.AddEdge(e)
		}
		total += len(edges)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkIngestStreamBatch measures building a fresh sketch over the
// same stream through AddEdges in 1024-edge batches.
func BenchmarkIngestStreamBatch(b *testing.B) {
	edges, params := denseIngest()
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		s := MustNewSketch(params)
		for lo := 0; lo < len(edges); lo += batch {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			s.AddEdges(edges[lo:hi])
		}
		total += len(edges)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "edges/sec")
}
