package tables

import (
	"fmt"
	"math"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/greedy"
	"repro/internal/hashing"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/workload"
)

// RunThm31KCover verifies Theorem 3.1 along both axes:
//
//  1. ratio: on small instances with exact optima, the single-pass
//     solution achieves at least 1 − 1/e − ε of Opt_k;
//  2. space: with n fixed and m growing by orders of magnitude, the
//     sketch size stays flat (O~(n), independent of m).
func RunThm31KCover(cfg Config) []*stats.Table {
	// --- ratio vs exact optimum on small instances ---
	eps := 0.4
	tRatio := &stats.Table{
		Title: "Theorem 3.1 (ratio): one-pass k-cover vs exact Opt_k",
		Cols:  []string{"workload", "k", "mean ratio", "min ratio", "bound 1-1/e-eps"},
		Notes: []string{fmt.Sprintf("eps=%g trials=%d; exact optimum by branch and bound", eps, cfg.trials()*2)},
	}
	bound := 1 - 1/math.E - eps
	type smallCase struct {
		name string
		make func(seed uint64) workload.Instance
		k    int
	}
	n, m := cfg.pick(40, 24), cfg.pick(400, 160)
	cases := []smallCase{
		{"uniform", func(s uint64) workload.Instance { return workload.Uniform(n, m, 0.08, s) }, 4},
		{"zipf", func(s uint64) workload.Instance { return workload.Zipf(n, m, m/3, 0.9, 0.8, s) }, 4},
		{"clustered", func(s uint64) workload.Instance { return workload.Clustered(n, m, 4, s) }, 4},
	}
	for ci, sc := range cases {
		var ratios []float64
		for tr := 0; tr < cfg.trials()*2; tr++ {
			seed := cfg.trialSeed(400+ci, tr)
			inst := sc.make(seed)
			opt := exact.MaxCover(inst.G, sc.k)
			res, err := algorithms.KCover(stream.Shuffled(inst.G, seed), inst.G.NumSets(), sc.k,
				algorithms.Options{Eps: eps, Seed: seed, NumElems: inst.G.NumElems()})
			if err != nil {
				panic(err)
			}
			ratios = append(ratios, ratio(float64(inst.G.Coverage(res.Sets)), float64(opt.Covered)))
		}
		tRatio.AddRow(sc.name, sc.k, stats.Mean(ratios), stats.Min(ratios), bound)
	}

	// --- space independence from m ---
	nFix := cfg.pick(200, 50)
	k := cfg.pick(10, 5)
	budget := 60 * nFix
	tSpace := &stats.Table{
		Title: "Theorem 3.1 (space): sketch edges stay O~(n) as m grows",
		Cols:  []string{"m", "input edges", "sketch edges", "sketch/input", "ratio vs greedy"},
		Notes: []string{fmt.Sprintf("n=%d k=%d fixed, practical budget=%d edges", nFix, k, budget)},
	}
	for mi, mm := range []int{cfg.pick(5000, 800), cfg.pick(20000, 3200), cfg.pick(80000, 12800)} {
		seed := cfg.trialSeed(450+mi, 0)
		inst := workload.PlantedKCover(nFix, mm, k, 0.9, mm/100+1, seed)
		res, err := algorithms.KCover(stream.Shuffled(inst.G, seed), nFix, k,
			algorithms.Options{Eps: eps, Seed: seed, NumElems: mm, EdgeBudget: budget})
		if err != nil {
			panic(err)
		}
		ref := greedy.MaxCover(inst.G, k)
		tSpace.AddRow(mm, inst.G.NumEdges(), res.Sketch.PeakEdges,
			float64(res.Sketch.PeakEdges)/float64(inst.G.NumEdges()),
			ratio(float64(inst.G.Coverage(res.Sets)), float64(ref.Covered)))
	}
	return []*stats.Table{tRatio, tSpace}
}

// RunThm33Outliers verifies Theorem 3.3: sweeping λ, the single-pass
// solution covers at least 1−λ of the elements using at most
// (1+ε)·ln(1/λ)·k* sets.
func RunThm33Outliers(cfg Config) []*stats.Table {
	n := cfg.pick(200, 60)
	m := cfg.pick(20000, 2000)
	kStar := cfg.pick(8, 4)
	eps := 0.5
	budget := 60 * n
	t := &stats.Table{
		Title: "Theorem 3.3: set cover with lambda outliers, single pass",
		Cols:  []string{"lambda", "mean |sol|", "size bound", "mean coverage", "min coverage", "target", "guesses"},
		Notes: []string{fmt.Sprintf("n=%d m=%d k*=%d eps=%g trials=%d", n, m, kStar, eps, cfg.trials())},
	}
	for li, lambda := range []float64{0.02, 0.05, 0.1, 0.2, 0.35} {
		var sizes, covs []float64
		guesses := 0
		for tr := 0; tr < cfg.trials(); tr++ {
			seed := cfg.trialSeed(500+li, tr)
			inst := workload.PlantedSetCover(n, m, kStar, m/100+1, seed)
			res, err := algorithms.SetCoverOutliers(stream.Shuffled(inst.G, seed), n, lambda,
				algorithms.Options{Eps: eps, Seed: seed, NumElems: m, EdgeBudget: budget})
			if err != nil {
				panic(err)
			}
			guesses = res.Guesses
			sizes = append(sizes, float64(len(res.Sets)))
			covs = append(covs, float64(inst.G.Coverage(res.Sets))/float64(m))
		}
		t.AddRow(lambda, stats.Mean(sizes), (1+eps)*math.Log(1/lambda)*float64(kStar),
			stats.Mean(covs), stats.Min(covs), 1-lambda, guesses)
	}
	return []*stats.Table{t}
}

// RunThm34SetCover verifies Theorem 3.4: sweeping the number of
// iterations r, the multi-pass algorithm returns a full cover of size at
// most (1+ε)·ln(m)·k*, with space decreasing as passes increase (the
// n·m^{3/(2+r)} shape).
func RunThm34SetCover(cfg Config) []*stats.Table {
	n := cfg.pick(150, 50)
	m := cfg.pick(6000, 1200)
	kStar := cfg.pick(8, 4)
	eps := 0.5
	budget := 40 * n
	t := &stats.Table{
		Title: "Theorem 3.4: r-iteration set cover; size bound and space vs passes",
		Cols:  []string{"r", "passes", "|sol|", "bound (1+eps)ln(m)k*", "covered", "m", "residual edges", "residual frac m^(3/(2+r))/m"},
		Notes: []string{
			fmt.Sprintf("n=%d m=%d k*=%d eps=%g trials=%d (planted partition + heavy Zipf tail)", n, m, kStar, eps, cfg.trials()),
			"paper shape: the residual graph buffered by the final pass shrinks like m^{3/(2+r)} as r grows",
		},
	}
	for ri, r := range []int{1, 2, 3, 4} {
		var sizes, covs, residuals []float64
		passes := 0
		for tr := 0; tr < cfg.trials(); tr++ {
			seed := cfg.trialSeed(600+ri, tr)
			inst := workload.PlantedSetCover(n, m, kStar, m/100+1, seed)
			res, err := algorithms.SetCoverMultiPass(stream.Shuffled(inst.G, seed), n, m, r,
				algorithms.Options{Eps: eps, Seed: seed, EdgeBudget: budget})
			if err != nil {
				panic(err)
			}
			passes = res.Passes
			sizes = append(sizes, float64(len(res.Sets)))
			covs = append(covs, float64(res.Covered))
			residuals = append(residuals, float64(res.ResidualEdges))
		}
		theory := math.Pow(float64(m), 3/(2+float64(r))) / float64(m)
		t.AddRow(r, passes, stats.Mean(sizes), (1+eps)*math.Log(float64(m))*float64(kStar),
			stats.Mean(covs), m, stats.Mean(residuals), theory)
	}

	// Second panel: the residual-vs-passes shape on a hard heavy-tailed
	// instance where no single round covers everything (on easy planted
	// instances every round already covers 100%, collapsing the shape).
	t2 := &stats.Table{
		Title: "Theorem 3.4 (space shape): residual edges vs r on a heavy-tailed instance",
		Cols:  []string{"r", "passes", "|sol|", "|sol|/greedy", "residual edges", "input edges"},
		Notes: []string{"greedy = offline ln(m)-approx with the whole input in memory"},
	}
	instHard := workload.Zipf(n, m, m/3, 1.1, 0.9, cfg.trialSeed(650, 0))
	greedySize := len(greedy.SetCover(instHard.G).Sets)
	for _, r := range []int{1, 2, 3, 4} {
		res, err := algorithms.SetCoverMultiPass(stream.Shuffled(instHard.G, 3), n, m, r,
			algorithms.Options{Eps: eps, Seed: cfg.trialSeed(651, r), EdgeBudget: budget})
		if err != nil {
			panic(err)
		}
		t2.AddRow(r, res.Passes, len(res.Sets),
			float64(len(res.Sets))/float64(max(greedySize, 1)),
			res.ResidualEdges, instHard.G.NumEdges())
	}
	return []*stats.Table{t, t2}
}

// RunLem22Accuracy verifies Lemma 2.2/2.3 empirically: for random
// families S of size k, the scaled sketch coverage |Γ(Hp,S)|/p deviates
// from C(S) by at most ε·Opt_k once p clears the lemma's threshold; the
// error decays like 1/sqrt(p·m).
func RunLem22Accuracy(cfg Config) []*stats.Table {
	n := cfg.pick(100, 40)
	m := cfg.pick(40000, 4000)
	k := cfg.pick(8, 4)
	samples := cfg.pick(60, 20)
	seed := cfg.trialSeed(700, 0)
	inst := workload.Zipf(n, m, m/4, 0.8, 0.6, seed)
	optK := float64(greedy.MaxCover(inst.G, k).Covered) // Opt_k proxy (>= (1-1/e)Opt_k)

	t := &stats.Table{
		Title: "Lemma 2.2: |(1/p)|Gamma(Hp,S)| - C(S)| / Opt_k over random S, sweeping p",
		Cols:  []string{"p", "mean err/Opt_k", "p90 err/Opt_k", "max err/Opt_k", "mean |Hp| edges"},
		Notes: []string{
			fmt.Sprintf("n=%d m=%d k=%d, %d random families per p; Opt_k proxied by offline greedy", n, m, k, samples),
			"paper shape: error shrinks ~1/sqrt(p); all errors << 1 for moderate p",
		},
	}
	rng := hashing.NewRNG(seed + 1)
	fams := make([][]int, samples)
	for i := range fams {
		fams[i] = rng.Sample(n, k)
	}
	for pi, p := range []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0} {
		var errs []float64
		var edges []float64
		for rep := 0; rep < 3; rep++ {
			hp := core.BuildHp(inst.G, p, cfg.trialSeed(710+pi, rep))
			edges = append(edges, float64(hp.NumEdges()))
			for _, fam := range fams {
				est := float64(hp.Coverage(fam)) / p
				truth := float64(inst.G.Coverage(fam))
				errs = append(errs, math.Abs(est-truth)/optK)
			}
		}
		t.AddRow(p, stats.Mean(errs), stats.Quantile(errs, 0.9), stats.Max(errs), stats.Mean(edges))
	}
	return []*stats.Table{t}
}
