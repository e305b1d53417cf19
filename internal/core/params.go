// Package core implements the paper's central contribution: the coverage
// sketches Hp, H′p and H≤n of Section 2, together with the one-pass
// edge-arrival construction of Algorithm 2.
//
// Recap of the construction. A hash function h maps every element to a
// uniform value in [0, 1] (represented here as a uint64 priority).
//
//   - Hp keeps exactly the elements with h(v) ≤ p, with all their edges.
//   - H′p additionally caps the degree of every kept element at
//     D = n·ln(1/ε)/(ε·k), discarding surplus edges arbitrarily.
//   - H≤n = H′p* where p* is the smallest p at which H′p reaches the edge
//     budget B = 24·n·δ·ln(1/ε)·ln(n)/((1−ε)·ε³) (Definition 2.1) — i.e.
//     the elements with the smallest hash values whose capped degrees sum
//     to the budget. The sketch therefore always holds O~(n) edges,
//     independent of m and of the set sizes.
//
// Theorem 2.7: any α-approximate k-cover solution computed on H≤n is an
// (α − 12ε)-approximate solution on the original input w.h.p., so the
// streaming algorithms simply run the classical offline algorithms on the
// sketch.
package core

import (
	"fmt"
	"math"

	"repro/internal/hashing"
)

// Params configures a sketch. NumSets (n), K and Eps are required. The
// zero values of the remaining fields select the paper's formulas.
type Params struct {
	// NumSets is n, the number of sets in the instance. Required.
	NumSets int
	// NumElems is m, used only inside the δ factor of the edge budget
	// (δ = δ″·log log m terms). If zero, a default of 2²⁰ is assumed; the
	// dependence is doubly logarithmic so the choice is insensitive.
	NumElems int
	// K is the solution size the sketch must support (k of k-cover, or
	// k′·ln(1/λ′) for the set-cover submodule). Required, ≥ 1.
	K int
	// Eps is the accuracy parameter ε ∈ (0, 1].
	Eps float64
	// DeltaPP is the confidence parameter δ″ ≥ 1 of Definition 2.1.
	// Zero selects 2 + ln n as in Algorithm 3.
	DeltaPP float64

	// EdgeBudget, when positive, overrides the theoretical budget B.
	// Experiments use this to sweep space; the default follows the paper.
	EdgeBudget int
	// DegreeCap, when positive, overrides D = n·ln(1/ε)/(ε·k).
	DegreeCap int
	// SpaceFactor, when positive, multiplies the theoretical edge budget.
	SpaceFactor float64

	// Seed drives the element hash function. Algorithms derive distinct
	// sub-seeds from it, so a single seed makes a whole run reproducible.
	Seed uint64
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.NumSets <= 0 {
		return fmt.Errorf("core: NumSets must be positive, got %d", p.NumSets)
	}
	if p.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", p.K)
	}
	if !(p.Eps > 0 && p.Eps <= 1) {
		return fmt.Errorf("core: Eps must be in (0,1], got %v", p.Eps)
	}
	if p.DeltaPP < 0 {
		return fmt.Errorf("core: DeltaPP must be >= 0, got %v", p.DeltaPP)
	}
	if p.EdgeBudget < 0 || p.DegreeCap < 0 || p.SpaceFactor < 0 {
		return fmt.Errorf("core: overrides must be non-negative")
	}
	return nil
}

// Priority is the element hash h of Definition 2.1 under the
// parameters' seed: the priority order of every sketch and view built
// with them, as a value a caller can hold and call without an indirect
// call.
type Priority struct{ h hashing.Hasher }

// Priority returns the element hash under Seed.
func (p Params) Priority() Priority { return Priority{hashing.NewHasher(p.Seed)} }

// Of returns elem's priority.
func (h Priority) Of(elem uint32) uint64 { return h.h.Hash(elem) }

// sketchCompatible reports whether two parameter sets produce sketches
// that may be merged: they must agree on everything that determines the
// kept-edge policy (dimensions, accuracy, budget, cap, seed).
func (p Params) sketchCompatible(q Params) bool {
	return p.NumSets == q.NumSets &&
		p.K == q.K &&
		p.Eps == q.Eps &&
		p.Seed == q.Seed &&
		p.EffectiveDegreeCap() == q.EffectiveDegreeCap() &&
		p.EffectiveEdgeBudget() == q.EffectiveEdgeBudget()
}

// deltaPP returns δ″, defaulting to 2 + ln n (Algorithm 3's choice).
func (p Params) deltaPP() float64 {
	if p.DeltaPP > 0 {
		return p.DeltaPP
	}
	return 2 + math.Log(float64(max(p.NumSets, 2)))
}

// Delta returns δ = δ″ · ln(µ) where µ = log_{1/(1−ε)} m is the number of
// probability grid points in the proof of Theorem 2.7 (Definition 2.1's
// "δ″ log log_{1−ε} m"). It is at least δ″.
func (p Params) Delta() float64 {
	m := p.NumElems
	if m < 4 {
		m = 1 << 20
	}
	mu := math.Log(float64(m)) / math.Log(1/(1-min(p.Eps, 0.999)))
	if mu < 2 {
		mu = 2
	}
	d := p.deltaPP() * math.Log(mu)
	if d < p.deltaPP() {
		d = p.deltaPP()
	}
	return d
}

// EffectiveDegreeCap returns D, the per-element degree cap
// n·ln(1/ε)/(ε·k), honoring the override. Always ≥ 1.
func (p Params) EffectiveDegreeCap() int {
	if p.DegreeCap > 0 {
		return p.DegreeCap
	}
	d := float64(p.NumSets) * math.Log(1/p.Eps) / (p.Eps * float64(p.K))
	cap := int(math.Ceil(d))
	if cap < 1 {
		cap = 1
	}
	if cap > p.NumSets {
		// An element belongs to at most n sets; a larger cap is inert but
		// wastes per-slot capacity accounting.
		cap = p.NumSets
	}
	return cap
}

// EffectiveEdgeBudget returns B, the sketch edge budget
// 24·n·δ·ln(1/ε)·ln(n)/((1−ε)·ε³) of Definition 2.1, honoring
// SpaceFactor/EdgeBudget overrides. Always ≥ 1.
func (p Params) EffectiveEdgeBudget() int {
	if p.EdgeBudget > 0 {
		return p.EdgeBudget
	}
	n := float64(p.NumSets)
	b := 24 * n * p.Delta() * math.Log(1/p.Eps) * math.Log(max(n, 2)) /
		((1 - min(p.Eps, 0.999)) * p.Eps * p.Eps * p.Eps)
	if p.SpaceFactor > 0 {
		b *= p.SpaceFactor
	}
	if b < 1 {
		return 1
	}
	if b > 1e15 {
		return int(1e15)
	}
	return int(math.Ceil(b))
}
