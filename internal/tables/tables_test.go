package tables

import (
	"bytes"
	"strconv"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Trials: 1, Seed: 42} }

func TestExperimentRegistryComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{
		"ablate-degcap", "ablate-guess", "appD-l0", "dist-merge",
		"ext-weighted", "fig1-sketch", "lem22-accuracy", "table1-kcover",
		"table1-outliers", "table1-setcover", "thm12-lb", "thm13-oracle",
		"thm31-kcover", "thm33-outliers", "thm34-setcover",
	}
	if len(ids) != len(want) {
		t.Fatalf("have %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("experiment ids = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// runAndRender executes an experiment and sanity-checks its output.
func runAndRender(t *testing.T, id string) []string {
	t.Helper()
	tbls, err := Run(id, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls) == 0 {
		t.Fatalf("%s returned no tables", id)
	}
	var rendered []string
	for _, tbl := range tbls {
		if len(tbl.Cols) == 0 || len(tbl.Rows) == 0 {
			t.Fatalf("%s produced an empty table %q", id, tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Cols) {
				t.Fatalf("%s: row width %d != %d cols in %q", id, len(row), len(tbl.Cols), tbl.Title)
			}
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		rendered = append(rendered, buf.String())
	}
	return rendered
}

func TestTable1KCoverShape(t *testing.T) {
	tbls, err := Run("table1-kcover", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tbls[0]
	// 3 workloads x 4 algorithms.
	if len(tbl.Rows) != 12 {
		t.Fatalf("expected 12 rows, got %d", len(tbl.Rows))
	}
	// The H<=n rows should have a sane ratio (column 4, 0-indexed).
	for _, row := range tbl.Rows {
		if row[1] == "H<=n (here)" {
			r, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatalf("ratio cell %q unparsable", row[4])
			}
			if r < 0.5 || r > 1.05 {
				t.Fatalf("H<=n ratio %v out of plausible range on %s", r, row[0])
			}
		}
	}
}

func TestTable1OutliersShape(t *testing.T) {
	tbls, err := Run("table1-outliers", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls[0].Rows) != 4 {
		t.Fatalf("expected 4 lambda rows, got %d", len(tbls[0].Rows))
	}
	// Coverage (col 4) must be >= target (col 5) - small slack per row.
	for _, row := range tbls[0].Rows {
		cov, err1 := strconv.ParseFloat(row[4], 64)
		target, err2 := strconv.ParseFloat(row[5], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		if cov < target-0.05 {
			t.Fatalf("coverage %v below target %v", cov, target)
		}
	}
}

func TestTable1SetCoverShape(t *testing.T) {
	tbls, err := Run("table1-setcover", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls[0].Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(tbls[0].Rows))
	}
}

func TestFig1SketchStructure(t *testing.T) {
	tbls, err := Run("fig1-sketch", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls) != 2 {
		t.Fatalf("fig1 should return 2 tables, got %d", len(tbls))
	}
	// Edge table has one row per edge (14 in the fixed example).
	if len(tbls[0].Rows) != 14 {
		t.Fatalf("edge table has %d rows", len(tbls[0].Rows))
	}
	// H'p edges <= Hp edges <= G edges in the summary.
	var g, hp, hpp float64
	for _, row := range tbls[1].Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "G":
			g = v
		case "Hp":
			hp = v
		case "H'p":
			hpp = v
		}
	}
	if !(hpp <= hp && hp <= g && g == 14) {
		t.Fatalf("summary edges G=%v Hp=%v H'p=%v inconsistent", g, hp, hpp)
	}
}

func TestTheoremExperimentsRun(t *testing.T) {
	for _, id := range []string{"thm31-kcover", "thm33-outliers", "thm34-setcover", "lem22-accuracy"} {
		runAndRender(t, id)
	}
}

func TestHardnessExperimentsRun(t *testing.T) {
	for _, id := range []string{"thm12-lb", "thm13-oracle", "appD-l0"} {
		runAndRender(t, id)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"ablate-degcap", "ablate-guess"} {
		runAndRender(t, id)
	}
}

func TestExtWeightedRuns(t *testing.T) {
	tbls, err := Run("ext-weighted", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbls[0].Rows {
		r, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("ratio cell %q unparsable", row[2])
		}
		if r < 0.7 || r > 1.05 {
			t.Fatalf("weighted ratio %v implausible for spread %s", r, row[0])
		}
	}
}

func TestDistMergeSolutionsMatch(t *testing.T) {
	tbls, err := Run("dist-merge", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbls[0].Rows {
		if row[1] != "yes" {
			t.Fatalf("worker count %s produced a different solution", row[0])
		}
	}
}

func TestThm12ErrorDecreases(t *testing.T) {
	tbls, err := Run("thm12-lb", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tbls[0].Rows
	first, errF := strconv.ParseFloat(rows[0][2], 64)
	last, errL := strconv.ParseFloat(rows[len(rows)-1][2], 64)
	if errF != nil || errL != nil {
		t.Fatal("unparsable error cells")
	}
	if !(first > last) {
		t.Fatalf("error rate should fall with space: first %v, last %v", first, last)
	}
	if last != 0 {
		t.Fatalf("full-space error %v != 0", last)
	}
}

func TestConfigHelpers(t *testing.T) {
	var c Config
	if c.trials() != 3 {
		t.Fatalf("default trials = %d", c.trials())
	}
	if c.seed() == 0 {
		t.Fatal("default seed is zero")
	}
	c2 := Config{Trials: 7, Seed: 9}
	if c2.trials() != 7 || c2.seed() != 9 {
		t.Fatal("explicit config ignored")
	}
	if c2.pick(10, 3) != 10 {
		t.Fatal("pick(full) wrong")
	}
	c2.Quick = true
	if c2.pick(10, 3) != 3 {
		t.Fatal("pick(quick) wrong")
	}
	if c.trialSeed(1, 2) == c.trialSeed(1, 3) || c.trialSeed(1, 2) == c.trialSeed(2, 2) {
		t.Fatal("trialSeed collisions")
	}
}
