package server

import (
	"fmt"
	"math"
)

// WeightConfig switches an engine into weighted-coverage mode: elements
// carry non-negative weights and queries maximize the total weight of
// the covered elements instead of their count. Weights are namespace
// configuration — a deterministic element → weight mapping fixed at
// engine creation — so every shard, merge, snapshot and restart
// resolves the same weight for the same element, which is what makes
// the sharded weighted service bit-identical to the one-shot
// streamcover.MaxWeightedCoverage run (see internal/weighted).
type WeightConfig struct {
	// Table[e] is the weight of element e for e < len(Table). Entries
	// must be finite and non-negative; zero-weight elements are ignored
	// by the sketch (they never contribute coverage).
	Table []float64
	// Default is the weight of every element at or beyond len(Table).
	// Zero (the zero value) ignores such elements; must be finite and
	// non-negative.
	Default float64
}

// Validate checks the weight ranges.
func (w *WeightConfig) Validate() error {
	if w == nil {
		return nil
	}
	if w.Default < 0 || math.IsNaN(w.Default) || math.IsInf(w.Default, 0) {
		return fmt.Errorf("server: bad default weight %v", w.Default)
	}
	for e, v := range w.Table {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("server: bad weight %v for element %d", v, e)
		}
	}
	return nil
}

// clone deep-copies the config so a long-lived engine never aliases a
// caller-owned table.
func (w *WeightConfig) clone() *WeightConfig {
	if w == nil {
		return nil
	}
	return &WeightConfig{Table: append([]float64(nil), w.Table...), Default: w.Default}
}

// Fn returns the element-weight oracle the config describes.
func (w *WeightConfig) Fn() func(uint32) float64 {
	table, def := w.Table, w.Default
	return func(e uint32) float64 {
		if int(e) < len(table) {
			return table[e]
		}
		return def
	}
}

// Signature fingerprints the weight mapping: a SplitMix64-style fold
// over the table bits, the default and the length. A cluster peer is
// only merged when its weight signature equals the local one — weights
// that disagree would make the per-class scaled union silently wrong.
func (w *WeightConfig) Signature() uint64 {
	if w == nil {
		return 0
	}
	mix := func(h, v uint64) uint64 {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		return h ^ (h >> 31)
	}
	h := mix(uint64(len(w.Table)), math.Float64bits(w.Default))
	for _, v := range w.Table {
		h = mix(h, math.Float64bits(v))
	}
	// Reserve 0 for "unweighted" so a weighted engine never collides
	// with the unweighted key space.
	if h == 0 {
		h = 1
	}
	return h
}
