// Package bitset implements a dense, fixed-capacity bitset used by the
// exact solvers and the greedy reference implementations. The
// representation is a plain []uint64 so that values can be embedded,
// copied with copy(), and compared cheaply.
package bitset

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers. The
// capacity is fixed at construction; operations never grow the slice.
type Bitset []uint64

// New returns a bitset able to hold values in [0, n).
func New(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Capacity returns the number of representable values.
func (b Bitset) Capacity() int { return len(b) * 64 }

// Set inserts i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Get reports whether i is present.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Reset removes every member.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of members.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// CopyFrom overwrites b with src. The two sets must have equal capacity.
func (b Bitset) CopyFrom(src Bitset) { copy(b, src) }

// Or sets b to b ∪ other.
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// AndNotCount returns |other \ b|: the number of members of other that are
// not in b. This is the marginal-gain primitive of greedy algorithms.
func (b Bitset) AndNotCount(other Bitset) int {
	c := 0
	for i, w := range other {
		c += bits.OnesCount64(w &^ b[i])
	}
	return c
}

// UnionCount sets b to b ∪ other and returns the number of members newly
// added — the fused accept step of greedy algorithms (AndNotCount of the
// pick followed by Or, in one pass).
func (b Bitset) UnionCount(other Bitset) int {
	c := 0
	for i, w := range other {
		nw := w &^ b[i]
		if nw != 0 {
			c += bits.OnesCount64(nw)
			b[i] |= w
		}
	}
	return c
}

// IsSubsetOf reports whether every member of b is a member of other.
func (b Bitset) IsSubsetOf(other Bitset) bool {
	for i, w := range b {
		if w&^other[i] != 0 {
			return false
		}
	}
	return true
}

// IterOnes calls fn for every member in increasing order. If fn returns
// false, iteration stops.
func (b Bitset) IterOnes(fn func(i int) bool) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Ones returns the members in increasing order.
func (b Bitset) Ones() []int {
	out := make([]int, 0, b.Count())
	b.IterOnes(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
