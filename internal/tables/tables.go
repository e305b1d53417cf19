// Package tables is the experiment harness: it regenerates every table
// and figure of the paper (and the per-theorem guarantees) as text
// tables, per the experiment index in DESIGN.md. Each experiment has an
// id ("table1-kcover", "fig1-sketch", …) runnable through cmd/covbench
// and benchmarked in the repository root's bench_test.go.
package tables

import (
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/stats"
)

// Config scales the experiments. The zero value selects the full sizes
// of `covbench -run all`; Quick selects small sizes for benches and
// smoke tests.
type Config struct {
	// Seed drives all randomness; runs are deterministic given it.
	Seed uint64
	// Trials is the number of repetitions averaged per row (default 3).
	Trials int
	// Quick shrinks instance sizes by roughly an order of magnitude.
	Quick bool
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 0x5eed_c0ffee
	}
	return c.Seed
}

// trialSeed derives the seed of trial t for experiment slot slot.
func (c Config) trialSeed(slot, t int) uint64 {
	return hashing.Mix2(c.seed(), uint64(slot)<<32|uint64(t))
}

// pick returns full when !Quick, otherwise quick.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Runner executes one experiment and returns its result tables.
type Runner func(Config) []*stats.Table

// Experiments maps experiment ids (DESIGN.md §4) to runners.
func Experiments() map[string]Runner {
	return map[string]Runner{
		"table1-kcover":   RunTable1KCover,
		"table1-outliers": RunTable1Outliers,
		"table1-setcover": RunTable1SetCover,
		"fig1-sketch":     RunFig1Sketch,
		"thm31-kcover":    RunThm31KCover,
		"thm33-outliers":  RunThm33Outliers,
		"thm34-setcover":  RunThm34SetCover,
		"lem22-accuracy":  RunLem22Accuracy,
		"thm12-lb":        RunThm12LowerBound,
		"thm13-oracle":    RunThm13Oracle,
		"appD-l0":         RunAppDL0,
		"ablate-degcap":   RunAblateDegreeCap,
		"ablate-guess":    RunAblateGuessGrid,
		"dist-merge":      RunDistMerge,
		"ext-weighted":    RunExtWeighted,
	}
}

// ExperimentIDs returns the experiment ids in a stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments()))
	for id := range Experiments() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) ([]*stats.Table, error) {
	r, ok := Experiments()[id]
	if !ok {
		return nil, fmt.Errorf("tables: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return r(cfg), nil
}

func ratio(x, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return x / ref
}
