package hashing

import "testing"

var sink uint64

// BenchmarkSplitMix64 measures the core mixer.
func BenchmarkSplitMix64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = SplitMix64(uint64(i))
	}
}

// BenchmarkHasher measures the per-element hash on the sketch hot path.
func BenchmarkHasher(b *testing.B) {
	h := NewHasher(1)
	for i := 0; i < b.N; i++ {
		sink = h.Hash(uint32(i))
	}
}

// BenchmarkRNGUint64 measures raw generator throughput.
func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
}

// BenchmarkZipfDraw measures a draw from a 100k-support Zipf sampler.
func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(NewRNG(1), 100000, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = uint64(z.Draw())
	}
}
