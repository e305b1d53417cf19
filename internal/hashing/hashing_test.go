package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	if SplitMix64(42) != SplitMix64(42) {
		t.Fatal("SplitMix64 not deterministic")
	}
	if SplitMix64(42) == SplitMix64(43) {
		t.Fatal("SplitMix64(42) == SplitMix64(43): suspicious collision")
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := uint64(0x0123456789abcdef)
	h0 := SplitMix64(base)
	totalFlips := 0
	for bit := 0; bit < 64; bit++ {
		h1 := SplitMix64(base ^ (1 << uint(bit)))
		diff := h0 ^ h1
		flips := 0
		for diff != 0 {
			flips++
			diff &= diff - 1
		}
		totalFlips += flips
	}
	avg := float64(totalFlips) / 64
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: average %0.1f flipped bits (want ~32)", avg)
	}
}

func TestSplitMix64Injective(t *testing.T) {
	// The finalizer is a bijection; sample many inputs and require no
	// collisions.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := SplitMix64(i * 0x9e3779b97f4a7c15)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: inputs %d and %d", prev, i)
		}
		seen[h] = i
	}
}

func TestHasherDeterminismAndSeedSeparation(t *testing.T) {
	h1 := NewHasher(1)
	h2 := NewHasher(2)
	if h1.Hash(7) != NewHasher(1).Hash(7) {
		t.Fatal("Hasher not deterministic under same seed")
	}
	same := 0
	for k := uint32(0); k < 1000; k++ {
		if h1.Hash(k) == h2.Hash(k) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds agreed on %d of 1000 keys", same)
	}
}

func TestHasherUniformity(t *testing.T) {
	h := NewHasher(99)
	const buckets = 16
	counts := make([]int, buckets)
	const keys = 1 << 14
	for k := uint32(0); k < keys; k++ {
		counts[int(h.Unit(k)*buckets)]++
	}
	expected := float64(keys) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", b, c, expected)
		}
	}
}

func TestToUnitRange(t *testing.T) {
	cases := []uint64{0, 1, math.MaxUint64, math.MaxUint64 / 2, 1 << 33}
	for _, p := range cases {
		u := ToUnit(p)
		if u < 0 || u >= 1 {
			t.Fatalf("ToUnit(%d) = %v out of [0,1)", p, u)
		}
	}
}

func TestToUnitMonotone(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return ToUnit(a) <= ToUnit(b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFromUnitThresholdSemantics(t *testing.T) {
	// P(hash <= FromUnit(p)) should be approximately p.
	h := NewHasher(5)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		bar := FromUnit(p)
		hits := 0
		const keys = 1 << 14
		for k := uint32(0); k < keys; k++ {
			if h.Hash(k) <= bar {
				hits++
			}
		}
		got := float64(hits) / keys
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("FromUnit(%v): empirical rate %v", p, got)
		}
	}
	if FromUnit(1) != math.MaxUint64 {
		t.Fatal("FromUnit(1) should admit everything")
	}
	if FromUnit(0) != 0 {
		t.Fatal("FromUnit(0) should admit (almost) nothing")
	}
	if FromUnit(2) != math.MaxUint64 || FromUnit(-1) != 0 {
		t.Fatal("FromUnit should clamp out-of-range input")
	}
}

func TestMix2Independence(t *testing.T) {
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 100; a++ {
		for b := uint64(0); b < 100; b++ {
			h := Mix2(a, b)
			if seen[h] {
				t.Fatalf("Mix2 collision at (%d,%d)", a, b)
			}
			seen[h] = true
		}
	}
}
