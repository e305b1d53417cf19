// Package hashing provides the deterministic hash functions and random
// number generation used throughout the library.
//
// The sketches of the paper hash every element of the ground set to a
// uniform value in [0, 1] and keep the elements with the smallest hash
// values. We represent those values as uint64 priorities (smaller priority
// = smaller hash value) to avoid floating-point ties and to make ordering
// exact; conversions to [0, 1) floats are provided for the places where
// the mathematical definition needs a probability.
//
// Everything in this package is deterministic given a seed, which keeps
// every experiment in the repository reproducible.
package hashing

import "math"

// SplitMix64 is the finalizer of the splitmix64 generator (Steele et al.).
// It is a high-quality 64-bit mixer: a bijection on uint64 whose output
// passes standard avalanche tests. We use it both as a hash function for
// small keys and as the state-update function of RNG.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix2 mixes two words into one. It is used to derive per-structure seeds
// from a master seed and a stream index.
func Mix2(a, b uint64) uint64 {
	return SplitMix64(SplitMix64(a) ^ (b + 0x9e3779b97f4a7c15))
}

// Hasher hashes 32-bit keys (set or element identifiers) to uint64
// priorities under a fixed seed. The zero Hasher is valid and corresponds
// to seed 0.
type Hasher struct {
	seed uint64
}

// NewHasher returns a Hasher with the given seed.
func NewHasher(seed uint64) Hasher { return Hasher{seed: seed} }

// Hash returns the 64-bit priority of key. Distinct seeds give
// (empirically) independent hash functions.
func (h Hasher) Hash(key uint32) uint64 {
	return SplitMix64(h.seed ^ (uint64(key)+1)*0x9e3779b97f4a7c15)
}

// Unit returns the hash of key mapped to [0, 1).
func (h Hasher) Unit(key uint32) float64 {
	return ToUnit(h.Hash(key))
}

// ToUnit maps a uint64 priority to [0, 1) preserving order.
func ToUnit(p uint64) float64 {
	return float64(p>>11) * (1.0 / (1 << 53))
}

// FromUnit maps a probability in [0, 1] to the largest priority that is
// admitted by that probability, i.e. Hash(x) <= FromUnit(p) holds with
// probability (approximately) p.
func FromUnit(p float64) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	if p <= 0 {
		return 0
	}
	return uint64(p * float64(math.MaxUint64))
}
