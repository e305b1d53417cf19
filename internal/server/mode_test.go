package server

import (
	"strings"
	"testing"
)

// TestValidateQueryAcrossModes pins the query-validation contract the
// engine and cluster query planes share: which (algo, mode) pairs are
// legal, and the parameter bounds each algo enforces. A case's want map
// names the modes expected to reject it (with an error substring);
// modes absent from the map must accept.
func TestValidateQueryAcrossModes(t *testing.T) {
	modes := []ModeName{ModeSketch, ModeWeighted, ModeDynamic}
	all := func(msg string) map[ModeName]string {
		return map[ModeName]string{ModeSketch: msg, ModeWeighted: msg, ModeDynamic: msg}
	}
	cases := []struct {
		name string
		q    Query
		want map[ModeName]string
	}{
		{"kcover valid everywhere", Query{Algo: AlgoKCover, K: 3}, nil},
		{"kcover needs positive k", Query{Algo: AlgoKCover},
			all("kcover query needs positive k")},
		{"kcover rejects negative k", Query{Algo: AlgoKCover, K: -1},
			all("kcover query needs positive k")},
		{"wkcover is weighted-only", Query{Algo: AlgoWeightedKCover, K: 2},
			map[ModeName]string{
				ModeSketch:  "wkcover requires a weighted engine",
				ModeDynamic: "wkcover requires a weighted engine",
			}},
		{"wkcover needs positive k", Query{Algo: AlgoWeightedKCover},
			map[ModeName]string{
				ModeSketch:   "wkcover requires a weighted engine",
				ModeWeighted: "wkcover query needs positive k",
				ModeDynamic:  "wkcover requires a weighted engine",
			}},
		{"outliers is unweighted-only", Query{Algo: AlgoOutliers, Lambda: 0.1},
			map[ModeName]string{
				ModeWeighted: `algo "outliers" is not defined on a weighted engine`,
			}},
		{"outliers lambda lower bound", Query{Algo: AlgoOutliers, Lambda: 0},
			all("lambda in (0,1)")},
		{"outliers lambda upper bound", Query{Algo: AlgoOutliers, Lambda: 1},
			all("lambda in (0,1)")},
		{"greedy is unweighted-only", Query{Algo: AlgoGreedy},
			map[ModeName]string{
				ModeWeighted: `algo "greedy" is not defined on a weighted engine`,
			}},
		{"unknown algo", Query{Algo: "coverme", K: 3},
			all(`unknown query algo "coverme"`)},
	}
	for _, c := range cases {
		for _, mode := range modes {
			err := ValidateQuery(c.q, mode)
			wantMsg, wantErr := c.want[mode]
			if !wantErr {
				if err != nil {
					t.Errorf("%s on %s: unexpected error %v", c.name, mode, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s on %s: accepted, want error containing %q", c.name, mode, wantMsg)
			} else if !strings.Contains(err.Error(), wantMsg) {
				t.Errorf("%s on %s: error %q does not contain %q", c.name, mode, err, wantMsg)
			}
		}
	}
}

func TestConfigEngineModeResolution(t *testing.T) {
	base := testConfig(10, 100, 3, 1, 1)

	if m, err := base.EngineMode(); err != nil || m.Name() != ModeSketch {
		t.Fatalf("default mode = %v, %v; want sketch", m, err)
	}
	w := base
	w.Weights = &WeightConfig{Default: 1}
	if m, err := w.EngineMode(); err != nil || m.Name() != ModeWeighted {
		t.Fatalf("weights-implied mode = %v, %v; want weighted", m, err)
	}
	dyn := base
	dyn.Engine = ModeDynamic
	if m, err := dyn.EngineMode(); err != nil || m.Name() != ModeDynamic {
		t.Fatalf("dynamic mode = %v, %v", m, err)
	}

	bad := []struct {
		cfg  func() Config
		want string
	}{
		{func() Config { c := base; c.Engine = ModeDynamic; c.Weights = &WeightConfig{Default: 1}; return c },
			"does not take Weights"},
		{func() Config { c := base; c.Engine = ModeSketch; c.Weights = &WeightConfig{Default: 1}; return c },
			"does not take Weights"},
		{func() Config { c := base; c.Engine = ModeWeighted; return c },
			"requires Weights"},
		{func() Config { c := base; c.Engine = "bogus"; return c },
			`unknown engine "bogus"`},
	}
	for _, b := range bad {
		cfg := b.cfg()
		if _, err := cfg.EngineMode(); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("EngineMode() with Engine=%q Weights=%v: err %v, want substring %q",
				cfg.Engine, cfg.Weights != nil, err, b.want)
		}
		// New must refuse the same configs.
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("New() with Engine=%q: err %v, want substring %q", cfg.Engine, err, b.want)
		}
	}
}
