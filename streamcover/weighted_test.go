package streamcover

import (
	"math"
	"strings"
	"testing"
)

func TestMaxWeightedCoverageEndToEnd(t *testing.T) {
	inst := GeneratePlantedKCover(50, 3000, 5, 0.9, 15, 3)
	weights := make([]float64, inst.NumElems())
	for i := range weights {
		weights[i] = 1 + float64(i%5)
	}
	weightOf := func(e uint32) float64 { return weights[e] }

	res, err := MaxWeightedCoverage(inst.EdgeStream(2), inst.NumSets(), 5, weightOf,
		Options{Eps: 0.4, Seed: 7, NumElems: inst.NumElems(), EdgeBudget: 60 * inst.NumSets()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) > 5 || res.WeightClasses < 1 || res.EdgesStored == 0 {
		t.Fatalf("malformed result %+v", res)
	}
	truth, err := inst.WeightedCoverage(res.Sets, weights)
	if err != nil {
		t.Fatal(err)
	}
	_, greedyVal, err := inst.GreedyMaxWeightedCoverage(5, weights)
	if err != nil {
		t.Fatal(err)
	}
	if truth < (1-1/math.E-0.45)*greedyVal {
		t.Fatalf("streamed %v, offline greedy %v", truth, greedyVal)
	}
	if res.EstimatedCoverage < 0.7*truth || res.EstimatedCoverage > 1.3*truth {
		t.Fatalf("estimate %v vs truth %v", res.EstimatedCoverage, truth)
	}
}

func TestWeightedCoverageValidation(t *testing.T) {
	inst := GenerateUniform(5, 20, 0.2, 1)
	if _, err := inst.WeightedCoverage([]int{0}, make([]float64, 3)); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
	if _, _, err := inst.GreedyMaxWeightedCoverage(2, []float64{-1}); err == nil {
		t.Fatal("negative weights accepted")
	}
}

func TestMaxWeightedCoverageUniformEqualsUnweighted(t *testing.T) {
	inst := GenerateUniform(30, 1000, 0.04, 9)
	opt := Options{Eps: 0.4, Seed: 11, NumElems: inst.NumElems(), EdgeBudget: 5000}
	w, err := MaxWeightedCoverage(inst.EdgeStream(1), inst.NumSets(), 4,
		func(uint32) float64 { return 3 }, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform weights: the covered weight is 3x the covered count.
	truth := 3 * float64(inst.Coverage(w.Sets))
	got, err := inst.WeightedCoverage(w.Sets, uniformWeightsOf(inst.NumElems(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 1e-9 {
		t.Fatalf("weighted coverage %v != 3x unweighted %v", got, truth)
	}
}

func uniformWeightsOf(m int, w float64) []float64 {
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

// An oracle that answers NaN or +Inf for a streamed element gets an error
// naming the element, not a panic in the greedy.
func TestMaxWeightedCoverageRefusesNonFiniteWeights(t *testing.T) {
	inst := GenerateUniform(10, 200, 0.2, 4)
	opt := Options{Eps: 0.4, Seed: 3, NumElems: inst.NumElems()}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		weightOf := func(e uint32) float64 {
			if e == 7 {
				return bad
			}
			return 1
		}
		res, err := MaxWeightedCoverage(inst.EdgeStream(1), inst.NumSets(), 3, weightOf, opt)
		if err == nil || !strings.Contains(err.Error(), "element 7") {
			t.Fatalf("weight %v: got %+v, %v; want an error naming element 7", bad, res, err)
		}
	}
}
