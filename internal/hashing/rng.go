package hashing

import "math"

// RNG is a small, fast, deterministic pseudo-random generator built on
// splitmix64. It is not safe for concurrent use; create one per goroutine
// (Split derives independent child generators).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	// Run the state through the mixer once so that small consecutive
	// seeds do not produce correlated first outputs.
	return &RNG{state: SplitMix64(seed ^ 0x5851f42d4c957f2d)}
}

// Split derives an independent child generator; the parent advances.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n items with the provided swap callback.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns a uniform sample of size k drawn without replacement from
// [0, n). It panics if k > n or k < 0. The result is in random order.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("hashing: Sample size out of range")
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.ShuffleInts(out)
	return out
}

// Zipf draws values in [0, n) with probability proportional to
// 1/(i+1)^alpha. It uses a precomputed cumulative table, so construct one
// Zipf per distribution and reuse it.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a Zipf sampler over [0, n) with exponent alpha >= 0.
// alpha = 0 is the uniform distribution.
func NewZipf(rng *RNG, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("hashing: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -alpha)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw returns the next sample.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
