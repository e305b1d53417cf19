// Repository-level benchmark harness: one benchmark per paper artifact
// (table / figure / theorem / ablation), as indexed in DESIGN.md §4.
//
// Each benchmark executes the corresponding experiment at Quick scale, so
// `go test -bench=. -benchmem` regenerates every result end to end and
// reports its cost. The full-scale tables come from
// `go run ./cmd/covbench -run all`.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/tables"
)

func benchExperiment(b *testing.B, id string) {
	cfg := tables.Config{Quick: true, Trials: 1, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbls, err := tables.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Rendering is part of the regeneration cost.
		for _, t := range tbls {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1KCover regenerates the k-cover rows of Table 1.
func BenchmarkTable1KCover(b *testing.B) { benchExperiment(b, "table1-kcover") }

// BenchmarkTable1Outliers regenerates the outlier rows of Table 1.
func BenchmarkTable1Outliers(b *testing.B) { benchExperiment(b, "table1-outliers") }

// BenchmarkTable1SetCover regenerates the set-cover rows of Table 1.
func BenchmarkTable1SetCover(b *testing.B) { benchExperiment(b, "table1-setcover") }

// BenchmarkFig1Sketch regenerates Figure 1 (Hp / H'p illustration).
func BenchmarkFig1Sketch(b *testing.B) { benchExperiment(b, "fig1-sketch") }

// BenchmarkThm31KCover regenerates the Theorem 3.1 ratio/space experiment.
func BenchmarkThm31KCover(b *testing.B) { benchExperiment(b, "thm31-kcover") }

// BenchmarkThm33Outliers regenerates the Theorem 3.3 lambda sweep.
func BenchmarkThm33Outliers(b *testing.B) { benchExperiment(b, "thm33-outliers") }

// BenchmarkThm34SetCover regenerates the Theorem 3.4 pass/space tradeoff.
func BenchmarkThm34SetCover(b *testing.B) { benchExperiment(b, "thm34-setcover") }

// BenchmarkLem22Accuracy regenerates the Lemma 2.2 concentration sweep.
func BenchmarkLem22Accuracy(b *testing.B) { benchExperiment(b, "lem22-accuracy") }

// BenchmarkThm12LowerBound regenerates the Theorem 1.2 space lower bound.
func BenchmarkThm12LowerBound(b *testing.B) { benchExperiment(b, "thm12-lb") }

// BenchmarkThm13Oracle regenerates the Theorem 1.3 oracle separation.
func BenchmarkThm13Oracle(b *testing.B) { benchExperiment(b, "thm13-oracle") }

// BenchmarkAppDL0 regenerates the Appendix D l0-sketch comparison.
func BenchmarkAppDL0(b *testing.B) { benchExperiment(b, "appD-l0") }

// BenchmarkAblateDegreeCap regenerates the degree-cap ablation.
func BenchmarkAblateDegreeCap(b *testing.B) { benchExperiment(b, "ablate-degcap") }

// BenchmarkAblateGuessGrid regenerates the guess-grid ablation.
func BenchmarkAblateGuessGrid(b *testing.B) { benchExperiment(b, "ablate-guess") }

// BenchmarkDistMerge regenerates the distributed shard-sketch-merge round.
func BenchmarkDistMerge(b *testing.B) { benchExperiment(b, "dist-merge") }

// BenchmarkExtWeighted regenerates the weighted-coverage extension table.
func BenchmarkExtWeighted(b *testing.B) { benchExperiment(b, "ext-weighted") }
