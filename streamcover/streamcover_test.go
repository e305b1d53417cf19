package streamcover

import (
	"bytes"
	"math"
	"testing"
)

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(2, 2, []Edge{{Set: 5, Elem: 0}}); err == nil {
		t.Fatal("out-of-range set accepted")
	}
	inst, err := NewInstance(2, 3, []Edge{{Set: 0, Elem: 0}, {Set: 0, Elem: 1}, {Set: 1, Elem: 2}, {Set: 0, Elem: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumSets() != 2 || inst.NumElems() != 3 || inst.NumEdges() != 3 {
		t.Fatal("dims wrong (dedupe?)")
	}
	if inst.Coverage([]int{0}) != 2 || inst.Coverage([]int{0, 1}) != 3 {
		t.Fatal("coverage wrong")
	}
}

func TestNewInstanceFromSets(t *testing.T) {
	inst, err := NewInstanceFromSets(4, [][]uint32{{0, 1}, {2, 3}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumSets() != 3 || inst.Coverage([]int{0, 1}) != 4 {
		t.Fatal("FromSets wrong")
	}
	if got := inst.SetElems(1); len(got) != 2 || got[0] != 2 {
		t.Fatalf("SetElems = %v", got)
	}
}

func TestEdgeStreamDeliversAllEdges(t *testing.T) {
	inst := GenerateUniform(10, 100, 0.1, 1)
	st := inst.EdgeStream(7)
	count := 0
	seen := map[uint64]bool{}
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		count++
		seen[uint64(e.Set)<<32|uint64(e.Elem)] = true
	}
	if count != inst.NumEdges() || len(seen) != inst.NumEdges() {
		t.Fatalf("stream delivered %d (%d distinct) of %d edges", count, len(seen), inst.NumEdges())
	}
	st.Reset()
	if _, ok := st.Next(); !ok {
		t.Fatal("Reset did not replay")
	}
}

func TestMaxCoverageEndToEnd(t *testing.T) {
	inst := GeneratePlantedKCover(60, 3000, 5, 0.9, 20, 11)
	if inst.Planted == nil {
		t.Fatal("generator did not record planted info")
	}
	res, err := MaxCoverage(inst.EdgeStream(3), inst.NumSets(), 5,
		Options{Eps: 0.4, Seed: 5, NumElems: inst.NumElems(), EdgeBudget: 60 * inst.NumSets()})
	if err != nil {
		t.Fatal(err)
	}
	got := inst.Coverage(res.Sets)
	bound := (1 - 1/math.E - 0.45) * float64(inst.Planted.Coverage)
	if float64(got) < bound {
		t.Fatalf("covered %d, planted %d", got, inst.Planted.Coverage)
	}
	if res.Sketch.EdgesStored == 0 || res.Sketch.EdgesSeen != int64(inst.NumEdges()) {
		t.Fatalf("sketch stats wrong: %+v", res.Sketch)
	}
	// Estimate close to the truth.
	if res.EstimatedCoverage < 0.7*float64(got) || res.EstimatedCoverage > 1.3*float64(got) {
		t.Fatalf("estimate %v vs truth %d", res.EstimatedCoverage, got)
	}
}

func TestMaxCoverageDeterministicAcrossOrders(t *testing.T) {
	inst := GenerateUniform(25, 800, 0.04, 13)
	var ref []int
	for order := uint64(0); order < 3; order++ {
		res, err := MaxCoverage(inst.EdgeStream(order), inst.NumSets(), 4,
			Options{Eps: 0.4, Seed: 999, NumElems: inst.NumElems(), EdgeBudget: 700})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Sets
			continue
		}
		for i := range ref {
			if res.Sets[i] != ref[i] {
				t.Fatal("solution depends on stream order")
			}
		}
	}
}

func TestSetCoverWithOutliersEndToEnd(t *testing.T) {
	inst := GeneratePlantedSetCover(50, 2000, 5, 15, 17)
	lambda := 0.1
	res, err := SetCoverWithOutliers(inst.EdgeStream(5), inst.NumSets(), lambda,
		Options{Eps: 0.5, Seed: 7, NumElems: inst.NumElems(), EdgeBudget: 50 * inst.NumSets()})
	if err != nil {
		t.Fatal(err)
	}
	covered := inst.Coverage(res.Sets)
	if float64(covered) < (1-lambda-0.05)*float64(inst.NumElems()) {
		t.Fatalf("covered %d of %d", covered, inst.NumElems())
	}
	bound := (1+0.5)*math.Log(1/lambda)*float64(inst.Planted.CoverSize) + 1
	if float64(len(res.Sets)) > bound {
		t.Fatalf("%d sets > bound %.1f", len(res.Sets), bound)
	}
	if res.GuessK <= 0 || res.Sketch.EdgesStored == 0 {
		t.Fatalf("result metadata missing: %+v", res)
	}
}

func TestSetCoverWithOutliersRejectsBadLambda(t *testing.T) {
	inst := GenerateUniform(5, 20, 0.3, 1)
	if _, err := SetCoverWithOutliers(inst.EdgeStream(1), 5, 0.9, Options{}); err == nil {
		t.Fatal("lambda=0.9 accepted")
	}
}

func TestSetCoverEndToEnd(t *testing.T) {
	inst := GeneratePlantedSetCover(40, 1500, 5, 10, 19)
	for _, r := range []int{1, 2, 3} {
		res, err := SetCover(inst.EdgeStream(2), inst.NumSets(), inst.NumElems(), r,
			Options{Eps: 0.5, Seed: 3, EdgeBudget: 40 * inst.NumSets()})
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.Coverage(res.Sets); got != inst.NumElems() {
			t.Fatalf("r=%d: covered %d of %d", r, got, inst.NumElems())
		}
		if res.Passes != 2*(r-1)+1 {
			t.Fatalf("r=%d: passes = %d", r, res.Passes)
		}
		bound := (1+0.5)*math.Log(float64(inst.NumElems()))*float64(inst.Planted.CoverSize) + 1
		if float64(len(res.Sets)) > bound {
			t.Fatalf("r=%d: %d sets > bound %.1f", r, len(res.Sets), bound)
		}
	}
}

func TestGreedyReferences(t *testing.T) {
	inst := GenerateClustered(12, 120, 4, 23)
	sets, covered := inst.GreedyMaxCoverage(4)
	if covered != 120 || len(sets) != 4 {
		t.Fatalf("greedy max coverage: %d sets, %d covered", len(sets), covered)
	}
	cover, coveredAll := inst.GreedySetCover()
	if coveredAll != inst.CoveredElems() {
		t.Fatal("greedy set cover incomplete")
	}
	if len(cover) < 4 {
		t.Fatalf("cover of %d sets below planted size", len(cover))
	}
}

func TestBuildSketchAndEstimate(t *testing.T) {
	inst := GenerateLargeSets(10, 5000, 0.4, 29)
	sk, err := BuildSketch(inst.EdgeStream(4), SketchParams{
		NumSets:    10,
		K:          3,
		Eps:        0.4,
		Seed:       7,
		NumElems:   inst.NumElems(),
		EdgeBudget: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sk.SamplingProbability() >= 1 {
		t.Fatal("expected sampling on this instance")
	}
	sets := []int{0, 1, 2}
	truth := float64(inst.Coverage(sets))
	est := sk.EstimateCoverage(sets)
	if est < 0.8*truth || est > 1.2*truth {
		t.Fatalf("estimate %v vs truth %v", est, truth)
	}
	// The extracted instance supports custom algorithms.
	sub := sk.Instance()
	if sub.NumSets() != 10 {
		t.Fatal("sketch instance changed set count")
	}
	// EdgesStored is the peak, which bounds the final kept-edge count.
	if sub.NumEdges() > sk.Stats().EdgesStored {
		t.Fatalf("sketch instance edges %d > peak %d", sub.NumEdges(), sk.Stats().EdgesStored)
	}
	if sub.NumEdges() == 0 {
		t.Fatal("sketch instance empty")
	}
}

func TestBuildSketchValidation(t *testing.T) {
	if _, err := BuildSketch(&SliceStream{}, SketchParams{}); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestInstanceIORoundTrip(t *testing.T) {
	inst := GenerateZipf(15, 300, 80, 0.9, 0.7, 31)
	for _, mode := range []string{"text", "binary"} {
		var buf bytes.Buffer
		var err error
		if mode == "text" {
			err = inst.WriteText(&buf)
		} else {
			err = inst.WriteBinary(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got.NumSets() != inst.NumSets() || got.NumEdges() != inst.NumEdges() {
			t.Fatalf("%s round trip changed instance", mode)
		}
	}
}

func TestReadInstanceEmpty(t *testing.T) {
	if _, err := ReadInstance(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestGeneratorsExposePlanted(t *testing.T) {
	if GeneratePlantedKCover(10, 100, 3, 0.8, 4, 1).Planted == nil {
		t.Fatal("planted k-cover missing info")
	}
	if g := GeneratePlantedSetCover(10, 100, 3, 4, 1); g.Planted == nil || g.Planted.CoverSize != 3 {
		t.Fatal("planted set cover missing info")
	}
	if GenerateUniform(10, 100, 0.1, 1).Planted != nil {
		t.Fatal("uniform should not claim planted info")
	}
	if GenerateBlogTopics(10, 100, 30, 1).NumSets() != 10 {
		t.Fatal("blog topics dims wrong")
	}
}

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Edges: []Edge{{Set: 0, Elem: 1}, {Set: 1, Elem: 2}}}
	e, ok := s.Next()
	if !ok || e.Set != 0 {
		t.Fatal("first edge wrong")
	}
	if _, ok := s.Next(); !ok {
		t.Fatal("second edge missing")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream overran")
	}
	s.Reset()
	if _, ok := s.Next(); !ok {
		t.Fatal("reset failed")
	}
}
