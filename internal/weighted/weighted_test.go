package weighted

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/workload"
)

func uniformWeights(m int, w float64) []float64 {
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

func TestValidate(t *testing.T) {
	g := bipartite.MustFromEdges(2, 3, []bipartite.Edge{{Set: 0, Elem: 0}})
	if err := (Instance{G: g, W: uniformWeights(3, 1)}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Instance{
		{G: nil, W: nil},
		{G: g, W: uniformWeights(2, 1)},
		{G: g, W: []float64{1, -1, 1}},
		{G: g, W: []float64{1, math.NaN(), 1}},
		{G: g, W: []float64{1, math.Inf(1), 1}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Fatalf("bad instance %d accepted", i)
		}
	}
}

func TestCoverageWeighted(t *testing.T) {
	g := bipartite.MustFromEdges(3, 4, []bipartite.Edge{
		{Set: 0, Elem: 0}, {Set: 0, Elem: 1},
		{Set: 1, Elem: 1}, {Set: 1, Elem: 2},
		{Set: 2, Elem: 3},
	})
	in := Instance{G: g, W: []float64{1, 10, 100, 1000}}
	if got := in.Coverage([]int{0}); got != 11 {
		t.Fatalf("Coverage({0}) = %v", got)
	}
	if got := in.Coverage([]int{0, 1}); got != 111 {
		t.Fatalf("Coverage({0,1}) = %v", got)
	}
	if got := in.Coverage([]int{0, 0}); got != 11 {
		t.Fatalf("duplicate sets double-counted: %v", got)
	}
	if got := in.Coverage(nil); got != 0 {
		t.Fatalf("empty coverage %v", got)
	}
}

// bruteWeighted enumerates all k-subsets for ground truth.
func bruteWeighted(in Instance, k int) float64 {
	n := in.G.NumSets()
	best := 0.0
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == k || start == n {
			if v := in.Coverage(chosen); v > best {
				best = v
			}
			if len(chosen) == k {
				return
			}
		}
		for s := start; s < n; s++ {
			rec(s+1, append(chosen, s))
		}
	}
	rec(0, nil)
	return best
}

func TestGreedyMatchesUnweightedWhenUniform(t *testing.T) {
	inst := workload.Uniform(12, 80, 0.15, 1)
	in := Instance{G: inst.G, W: uniformWeights(80, 2.5)}
	res := MaxCover(in, 4)
	// With uniform weights, weighted greedy = unweighted greedy * w.
	if got := in.Coverage(res.Sets); math.Abs(got-res.Covered) > 1e-9 {
		t.Fatalf("reported %v != recomputed %v", res.Covered, got)
	}
	unweighted := float64(inst.G.Coverage(res.Sets)) * 2.5
	if math.Abs(unweighted-res.Covered) > 1e-9 {
		t.Fatalf("uniform-weight run disagrees with unweighted: %v vs %v", res.Covered, unweighted)
	}
}

func TestGreedyApproximationRatio(t *testing.T) {
	rng := hashing.NewRNG(7)
	for trial := 0; trial < 10; trial++ {
		inst := workload.Uniform(10, 40, 0.15, uint64(trial))
		ws := make([]float64, 40)
		for i := range ws {
			ws[i] = math.Pow(2, float64(rng.Intn(8))) // weights 1..128
		}
		in := Instance{G: inst.G, W: ws}
		k := 3
		greedyVal := MaxCover(in, k).Covered
		opt := bruteWeighted(in, k)
		if greedyVal < (1-1/math.E-1e-9)*opt {
			t.Fatalf("trial %d: greedy %v below (1-1/e)·opt %v", trial, greedyVal, opt)
		}
	}
}

func TestGreedyPrefersHeavyElements(t *testing.T) {
	// Set 0 covers many light elements; set 1 covers one heavy element.
	g := bipartite.MustFromEdges(2, 11, []bipartite.Edge{
		{Set: 0, Elem: 0}, {Set: 0, Elem: 1}, {Set: 0, Elem: 2}, {Set: 0, Elem: 3},
		{Set: 1, Elem: 10},
	})
	ws := uniformWeights(11, 1)
	ws[10] = 1000
	res := MaxCover(Instance{G: g, W: ws}, 1)
	if len(res.Sets) != 1 || res.Sets[0] != 1 {
		t.Fatalf("greedy picked %v, want the heavy set", res.Sets)
	}
}

func TestGreedySkipsZeroGain(t *testing.T) {
	g := bipartite.MustFromEdges(3, 2, []bipartite.Edge{
		{Set: 0, Elem: 0}, {Set: 1, Elem: 0}, {Set: 2, Elem: 1},
	})
	res := MaxCover(Instance{G: g, W: []float64{5, 1}}, 3)
	if len(res.Sets) != 2 {
		t.Fatalf("picked %v; the duplicate set adds nothing", res.Sets)
	}
}

// TestRunPrefixEqualsOneShot is the prefix property of the float loop:
// one Run asked k in ascending, descending and repeated order returns for
// each k exactly what a fresh one-shot MaxCover returns — Covered compared
// with ==, not a tolerance, since the run stores the running sum per pick
// — reports an extension exactly when k exceeds every k asked before, and
// hands out privately owned Sets. The weights are irrational multiples, so
// a sum taken in any other order would differ in the last bits.
func TestRunPrefixEqualsOneShot(t *testing.T) {
	rng := hashing.NewRNG(13)
	for trial := 0; trial < 6; trial++ {
		inst := workload.Zipf(30, 600, 120, 0.9, 0.7, uint64(trial+1))
		ws := make([]float64, inst.G.NumElems())
		for i := range ws {
			ws[i] = math.Sqrt(float64(1+rng.Intn(1000))) * math.Pow(2, float64(rng.Intn(6)))
		}
		in := Instance{G: inst.G, W: ws}
		run := NewRun(in)
		have := 0
		for _, k := range []int{3, 7, 7, 2, 0, 12, 1, 40, 40, 5, -1} {
			got, extended := run.MaxCover(k)
			want := MaxCover(in, k)
			if got.Covered != want.Covered || got.CoveredElems != want.CoveredElems || !slices.Equal(got.Sets, want.Sets) {
				t.Fatalf("trial %d k=%d: run %+v, one-shot %+v", trial, k, got, want)
			}
			if wantExt := max(len(want.Sets)-have, 0); extended != wantExt {
				t.Fatalf("trial %d k=%d: reported %d new picks, want %d (the run held %d)", trial, k, extended, wantExt, have)
			}
			have = max(have, len(want.Sets))
			for i := range got.Sets {
				got.Sets[i] = -1 // a caller's scribble reaches no later answer
			}
		}
	}
}

func TestClassIndex(t *testing.T) {
	cases := []struct {
		w    float64
		want int
	}{
		{1, 0}, {1.5, 0}, {2, 1}, {3.99, 1}, {4, 2}, {0.5, -1}, {0.3, -2},
	}
	for _, c := range cases {
		if got := classIndex(c.w); got != c.want {
			t.Fatalf("classIndex(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestStreamingKCoverUniformMatchesUnweightedPipeline(t *testing.T) {
	// With all weights equal, the weighted pipeline must behave like the
	// unweighted one (single class, same structure).
	inst := workload.PlantedKCover(40, 2000, 4, 0.9, 10, 3)
	res, err := KCover(stream.Shuffled(inst.G, 1), 40, 4,
		func(uint32) float64 { return 1 },
		Options{Eps: 0.4, Seed: 9, NumElems: 2000, EdgeBudget: 60 * 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != 1 {
		t.Fatalf("uniform weights produced %d classes", res.Classes)
	}
	in := Instance{G: inst.G, W: uniformWeights(2000, 1)}
	got := in.Coverage(res.Sets)
	if got < (1-1/math.E-0.45)*float64(inst.PlantedCoverage) {
		t.Fatalf("covered %v, planted %d", got, inst.PlantedCoverage)
	}
}

func TestStreamingKCoverHeavyClassDominates(t *testing.T) {
	// Elements 0..9 weigh 1000 and belong to set 0 only; the rest weigh 1.
	var edges []bipartite.Edge
	for e := 0; e < 10; e++ {
		edges = append(edges, bipartite.Edge{Set: 0, Elem: uint32(e)})
	}
	for e := 10; e < 500; e++ {
		edges = append(edges, bipartite.Edge{Set: uint32(1 + e%9), Elem: uint32(e)})
	}
	g := bipartite.MustFromEdges(10, 500, edges)
	weightOf := func(e uint32) float64 {
		if e < 10 {
			return 1000
		}
		return 1
	}
	res, err := KCover(stream.Shuffled(g, 2), 10, 1, weightOf,
		Options{Eps: 0.4, Seed: 5, NumElems: 500, EdgeBudget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.Sets[0] != 0 {
		t.Fatalf("picked %v, want the heavy set 0", res.Sets)
	}
	if res.Classes < 2 {
		t.Fatalf("expected >= 2 weight classes, got %d", res.Classes)
	}
}

func TestStreamingKCoverEstimateAccuracy(t *testing.T) {
	// Under sampling, the estimated weighted coverage should land near
	// the true weighted coverage of the returned solution.
	inst := workload.LargeSets(12, 6000, 0.35, 4)
	rng := hashing.NewRNG(11)
	ws := make([]float64, 6000)
	for i := range ws {
		ws[i] = 1 + 7*rng.Float64() // one weight class boundary spanned
	}
	in := Instance{G: inst.G, W: ws}
	res, err := KCover(stream.Shuffled(inst.G, 3), 12, 3,
		func(e uint32) float64 { return ws[e] },
		Options{Eps: 0.4, Seed: 13, NumElems: 6000, EdgeBudget: 1200})
	if err != nil {
		t.Fatal(err)
	}
	truth := in.Coverage(res.Sets)
	if res.EstimatedCoverage < 0.75*truth || res.EstimatedCoverage > 1.25*truth {
		t.Fatalf("estimate %v vs truth %v", res.EstimatedCoverage, truth)
	}
}

func TestStreamingKCoverSkipsZeroWeights(t *testing.T) {
	inst := workload.Uniform(8, 100, 0.2, 5)
	res, err := KCover(stream.Shuffled(inst.G, 1), 8, 2,
		func(e uint32) float64 {
			if e%2 == 0 {
				return 0
			}
			return 1
		},
		Options{Eps: 0.4, Seed: 3, NumElems: 100, EdgeBudget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != 1 {
		t.Fatalf("zero weights should be skipped; classes = %d", res.Classes)
	}
	if len(res.Sets) == 0 {
		t.Fatal("empty solution")
	}
}

func TestStreamingKCoverValidation(t *testing.T) {
	if _, err := KCover(stream.NewSlice(nil), 0, 1, func(uint32) float64 { return 1 }, Options{}); err == nil {
		t.Fatal("numSets=0 accepted")
	}
	if _, err := KCover(stream.NewSlice(nil), 5, 0, func(uint32) float64 { return 1 }, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KCover(stream.NewSlice(nil), 5, 1, nil, Options{}); err == nil {
		t.Fatal("nil weight oracle accepted")
	}
}
