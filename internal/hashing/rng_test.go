package hashing

import (
	"math"
	"sort"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedSeparation(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	equal := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := NewRNG(5)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	expected := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("value %d count %d deviates from %.0f", v, c, expected)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d items", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermIsShuffled(t *testing.T) {
	// Over many draws, position 0 should see many distinct values.
	r := NewRNG(11)
	distinct := make(map[int]bool)
	for i := 0; i < 100; i++ {
		distinct[r.Perm(50)[0]] = true
	}
	if len(distinct) < 20 {
		t.Fatalf("Perm looks unshuffled: only %d distinct first elements", len(distinct))
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(13)
	for trial := 0; trial < 50; trial++ {
		s := r.Sample(30, 10)
		if len(s) != 10 {
			t.Fatalf("Sample returned %d items", len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= 30 || seen[v] {
				t.Fatalf("invalid sample: %v", s)
			}
			seen[v] = true
		}
	}
}

func TestSampleFullRange(t *testing.T) {
	r := NewRNG(17)
	s := r.Sample(8, 8)
	sort.Ints(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("Sample(8,8) should be a permutation of [0,8): %v", s)
		}
	}
}

func TestSampleUniform(t *testing.T) {
	// Each of the n items should appear in a k-sample with rate k/n.
	r := NewRNG(19)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	expected := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("item %d sampled %d times, expected %.0f", v, c, expected)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) did not panic")
		}
	}()
	NewRNG(1).Sample(3, 4)
}

func TestShuffleSwapsPreserveMultiset(t *testing.T) {
	r := NewRNG(23)
	xs := []string{"a", "b", "c", "d", "e"}
	orig := map[string]int{}
	for _, x := range xs {
		orig[x]++
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := map[string]int{}
	for _, x := range xs {
		got[x]++
	}
	for k, v := range orig {
		if got[k] != v {
			t.Fatalf("shuffle changed multiset: %v", xs)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(31)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children correlated on first output")
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := NewRNG(41)
	z := NewZipf(r, 100, 1.2)
	if z.N() != 100 {
		t.Fatalf("Zipf N = %d", z.N())
	}
	counts := make([]int, 100)
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 should dominate rank 50 heavily under alpha=1.2.
	if counts[0] < 5*counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	r := NewRNG(43)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	expected := float64(draws) / 10
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("alpha=0 not uniform: value %d count %d", v, c)
		}
	}
}

func TestZipfPanicsOnEmptySupport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
