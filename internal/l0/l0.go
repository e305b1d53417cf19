// Package l0 implements mergeable ℓ0 (distinct-count) sketches in the
// style of Cormode–Datar–Indyk–Muthukrishnan [16], which Appendix D of the
// paper uses as the natural-but-suboptimal O~(nk)-space baseline for
// k-cover. The concrete sketch is KMV (k-minimum-values): keep the t
// smallest distinct hash values of the inserted items; the number of
// distinct items is estimated as (t−1)/h_(t) where h_(t) is the t-th
// smallest hash scaled to (0,1]. Two KMV sketches over the same hash
// function merge into the sketch of the union — exactly the property
// Appendix D needs to estimate coverage of a family of sets.
//
// Sampler (sampler.go) is the invertible edge sampler of the insert/delete
// engine mode; it reads element levels off the sketch priority and has no
// element hash of its own.
package l0

import (
	"fmt"
	"sort"

	"repro/internal/hashing"
)

// KMV is a k-minimum-values distinct counter. The zero value is unusable;
// construct with NewKMV. Sketches merge only if built with the same seed
// and capacity.
type KMV struct {
	t      int
	seed   uint64
	hasher hashing.Hasher
	// hs holds the up-to-t smallest distinct hash values, sorted
	// ascending. Insertion keeps it sorted; typical t is small (O(1/ε²)).
	hs []uint64
	// exactBelow is true while fewer than t distinct values were seen, in
	// which case len(hs) is the exact distinct count.
	sawAny bool
}

// NewKMV returns a KMV sketch keeping the t smallest hash values.
// t = ceil(3/ε²) gives a (1±ε) estimate with constant probability; callers
// boost confidence by taking medians across independent seeds.
func NewKMV(t int, seed uint64) *KMV {
	if t < 2 {
		t = 2
	}
	return &KMV{t: t, seed: seed, hasher: hashing.NewHasher(seed), hs: make([]uint64, 0, t)}
}

// TForEpsilon returns the sketch capacity needed for a (1±eps) relative
// error with constant success probability.
func TForEpsilon(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("l0: eps out of range: %v", eps))
	}
	t := int(3.0/(eps*eps)) + 1
	if t < 16 {
		t = 16
	}
	return t
}

// Seed returns the sketch's hash seed.
func (s *KMV) Seed() uint64 { return s.seed }

// T returns the sketch capacity.
func (s *KMV) T() int { return s.t }

// Size returns the number of stored hash values (≤ t).
func (s *KMV) Size() int { return len(s.hs) }

// Bytes returns the approximate memory footprint of the sketch payload.
func (s *KMV) Bytes() int { return 8 * cap(s.hs) }

// Add inserts item; duplicate items hash identically and are ignored.
func (s *KMV) Add(item uint32) {
	s.insertHash(s.hasher.Hash(item))
}

func (s *KMV) insertHash(h uint64) {
	n := len(s.hs)
	if n == s.t && h >= s.hs[n-1] {
		return // not among the t smallest
	}
	i := sort.Search(n, func(i int) bool { return s.hs[i] >= h })
	if i < n && s.hs[i] == h {
		return // duplicate
	}
	if n < s.t {
		s.hs = append(s.hs, 0)
	} else {
		n-- // drop the largest
	}
	copy(s.hs[i+1:], s.hs[i:n])
	s.hs[i] = h
}

// Merge folds other into s; both sketches must share seed and capacity.
func (s *KMV) Merge(other *KMV) error {
	if other.seed != s.seed || other.t != s.t {
		return fmt.Errorf("l0: cannot merge sketches with different seed/capacity")
	}
	for _, h := range other.hs {
		s.insertHash(h)
	}
	return nil
}

// Clone returns an independent copy of s.
func (s *KMV) Clone() *KMV {
	c := &KMV{t: s.t, seed: s.seed, hasher: s.hasher}
	c.hs = append(make([]uint64, 0, s.t), s.hs...)
	return c
}

// Estimate returns the estimated number of distinct items inserted.
func (s *KMV) Estimate() float64 {
	n := len(s.hs)
	if n < s.t {
		// Fewer than t distinct values seen: the count is exact.
		return float64(n)
	}
	ht := hashing.ToUnit(s.hs[n-1])
	if ht <= 0 {
		return float64(n)
	}
	return float64(s.t-1) / ht
}

// UnionEstimate estimates |A ∪ B| for the multisets underlying sketches;
// it merges copies, leaving the inputs untouched.
func UnionEstimate(sketches ...*KMV) (float64, error) {
	if len(sketches) == 0 {
		return 0, nil
	}
	acc := sketches[0].Clone()
	for _, s := range sketches[1:] {
		if err := acc.Merge(s); err != nil {
			return 0, err
		}
	}
	return acc.Estimate(), nil
}
