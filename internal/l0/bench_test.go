package l0

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
)

// BenchmarkKMVAdd measures the per-item insert cost of the ℓ0 sketch.
func BenchmarkKMVAdd(b *testing.B) {
	s := NewKMV(256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint32(i))
	}
}

// BenchmarkKMVMerge measures merging two full sketches — the union
// operation Appendix D performs per oracle query.
func BenchmarkKMVMerge(b *testing.B) {
	x := NewKMV(256, 1)
	y := NewKMV(256, 1)
	for i := uint32(0); i < 100000; i++ {
		if i%2 == 0 {
			x.Add(i)
		} else {
			y.Add(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		if err := c.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMVEstimate measures the estimation query.
func BenchmarkKMVEstimate(b *testing.B) {
	s := NewKMV(256, 1)
	for i := uint32(0); i < 100000; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Estimate() <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// The sampler benchmarks run at the geometry and load of the bench
// harness's `tenants` workload (DESIGN.md §14): 16 levels of 16 386
// cells, about two epochs (10.6 M edges) live, so ten levels are
// overloaded and level 10 decodes a sample of about 10 k edges.
var benchSamplerParams = SamplerParams{Levels: 16, Cells: 1 << 14, Seed: 7}

// benchOps fills ops with pseudo-random inserts over 1000 sets and 2 M
// elements, deterministic in from.
func benchOps(ops []bipartite.Op, from uint64) {
	for i := range ops {
		h := hashing.SplitMix64(from + uint64(i))
		ops[i] = bipartite.Op{Edge: bipartite.Edge{Set: uint32(h>>40) % 1000, Elem: uint32(h) % 2_000_000}}
	}
}

// benchLoadedSampler applies total inserts in batches of 1024.
func benchLoadedSampler(total int) *Sampler {
	s := NewSampler(benchSamplerParams)
	ops := make([]bipartite.Op, 1024)
	for at := 0; at < total; at += len(ops) {
		benchOps(ops, uint64(at))
		s.Apply(ops)
	}
	return s
}

// BenchmarkSamplerApply measures the op plane's kernel: one wire batch
// (1024 ops) into a loaded sampler, reported per op.
func BenchmarkSamplerApply(b *testing.B) {
	s := benchLoadedSampler(1 << 20)
	batches := make([][]bipartite.Op, 256)
	for i := range batches {
		batches[i] = make([]bipartite.Op, 1024)
		benchOps(batches[i], uint64(1<<30+i*1024))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(batches[i%len(batches)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/op-applied")
}

// BenchmarkSamplerRecover measures a refresh's decode: ten overloaded
// levels fail, the eleventh peels completely.
func BenchmarkSamplerRecover(b *testing.B) {
	s := benchLoadedSampler(10_600_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := s.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if rec.Level == 0 || len(rec.Edges) == 0 {
			b.Fatalf("decoded %d edges at level %d; the benchmark needs a subsampled level", len(rec.Edges), rec.Level)
		}
	}
}
