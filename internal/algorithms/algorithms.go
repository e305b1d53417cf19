// Package algorithms implements the paper's streaming algorithms on top
// of the H≤n sketch:
//
//   - KCover — Algorithm 3, the single-pass (1 − 1/e − ε)-approximation
//     for k-cover in O~(n) space (Theorem 3.1).
//   - CoverSubmodule — Algorithm 4, the bounded-size partial-cover
//     submodule used by set cover.
//   - SetCoverOutliers — Algorithm 5, the single-pass (1+ε)·ln(1/λ)-
//     approximation for set cover with λ outliers (Theorem 3.3), running
//     O(log n) geometric guesses of the optimal size in parallel over one
//     pass.
//   - SetCoverMultiPass — Algorithm 6, the p-pass (1+ε)·ln(m)-
//     approximation for set cover in O~(n·m^{O(1/p)} + m) space
//     (Theorem 3.4).
//
// Every algorithm consumes an edge-arrival stream, never the underlying
// graph; space accounting (edges stored, bytes) is reported in the result
// so experiments can verify the space claims.
package algorithms

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/stream"
)

// Options configures the streaming algorithms. Eps is the ε of the
// respective theorem. The sketch overrides mirror core.Params and exist
// so that experiments can run with practical space budgets; zero values
// select the paper's formulas.
type Options struct {
	// Eps is the accuracy parameter ε ∈ (0, 1] of the theorem statements.
	Eps float64
	// Seed makes the run deterministic.
	Seed uint64
	// NumElems is m when known; it only tunes the δ factor (log log m).
	NumElems int

	// EdgeBudget, SpaceFactor and DegreeCap override the sketch sizing
	// (per sketch); see core.Params.
	EdgeBudget  int
	SpaceFactor float64
	DegreeCap   int

	// GuessStep overrides the geometric guess-grid step of Algorithm 5
	// (default ε/3). Used by the grid ablation; leave zero otherwise.
	GuessStep float64
}

func (o Options) eps() float64 {
	if o.Eps <= 0 || o.Eps > 1 {
		return 0.5
	}
	return o.Eps
}

func (o Options) sketchParams(n, k int, eps float64, deltaPP float64) core.Params {
	return core.Params{
		NumSets:     n,
		NumElems:    o.NumElems,
		K:           k,
		Eps:         eps,
		DeltaPP:     deltaPP,
		EdgeBudget:  o.EdgeBudget,
		SpaceFactor: o.SpaceFactor,
		DegreeCap:   o.DegreeCap,
		Seed:        o.Seed,
	}
}

// KCoverResult reports a run of Algorithm 3.
type KCoverResult struct {
	// Sets is the chosen solution (at most k set ids).
	Sets []int
	// SketchCoverage is |Γ(H≤n, Sets)|, the coverage inside the sketch.
	SketchCoverage int
	// EstimatedCoverage is SketchCoverage / p*, the Lemma 2.2 estimate of
	// the true coverage C(Sets).
	EstimatedCoverage float64
	// SketchElemIDs lists the original ids of the elements the sketch
	// sampled (diagnostics for the sketch-composition experiments).
	SketchElemIDs []uint32
	// Sketch reports the space accounting of the sketch.
	Sketch core.Stats
}

// KCoverParams returns the sketch parameters Algorithm 3 uses:
// H≤n(k, ε/12, 2+ln n). Exported so that alternative drivers (the
// distributed round, the ensemble) build sketches with identical policy
// and inherit Theorem 3.1's guarantee.
func KCoverParams(numSets, k int, opt Options) core.Params {
	eps := opt.eps()
	epsP := eps / 12 // Algorithm 3 line 1: ε′ = ε/12
	deltaPP := 2 + math.Log(float64(max(numSets, 2)))
	return opt.sketchParams(numSets, k, epsP, deltaPP)
}

// KCover runs Algorithm 3: build H≤n(k, ε/12, 2+ln n) over a single pass
// of the stream, then run the offline greedy 1−1/e approximation on the
// sketch. The returned solution is a (1 − 1/e − ε)-approximation to
// k-cover on the underlying instance with probability 1 − 1/n
// (Theorem 3.1).
func KCover(st stream.Stream, numSets, k int, opt Options) (*KCoverResult, error) {
	if numSets <= 0 || k <= 0 {
		return nil, fmt.Errorf("algorithms: KCover needs positive numSets and k")
	}
	sk, err := core.NewSketch(KCoverParams(numSets, k, opt))
	if err != nil {
		return nil, err
	}
	sk.AddStream(st)
	g, ids := sk.Graph()
	res := greedy.MaxCover(g, k)
	return &KCoverResult{
		Sets:              res.Sets,
		SketchCoverage:    res.Covered,
		EstimatedCoverage: float64(res.Covered) / sk.PStar(),
		SketchElemIDs:     ids,
		Sketch:            sk.Stats(),
	}, nil
}

// SubmoduleResult reports a run of Algorithm 4 on a pre-built sketch.
type SubmoduleResult struct {
	// OK is false when the submodule "returns false", certifying (w.h.p.)
	// that the instance has no set cover of size kPrime.
	OK bool
	// Sets is the solution (size ≤ kPrime·ln(1/λ′)) when OK.
	Sets []int
	// SketchFraction is the fraction of sketch elements covered by Sets.
	SketchFraction float64
}

// CoverSubmodule runs the decision procedure of Algorithm 4 on a built
// sketch: run greedy for k = ⌈k′·ln(1/λ′)⌉ picks and accept iff the
// solution covers at least a 1 − λ′ − ε·ln(1/λ′) fraction of the sketch's
// elements, where ε is the sketch's accuracy parameter. By Lemma 3.2, a
// false return means (w.h.p.) no set cover of size k′ exists.
func CoverSubmodule(sk *core.Sketch, kPrime int, lambdaP float64) SubmoduleResult {
	k := int(math.Ceil(float64(kPrime) * math.Log(1/lambdaP)))
	if k < 1 {
		k = 1
	}
	g, _ := sk.Graph()
	res := greedy.MaxCover(g, k)
	elems := g.NumElems()
	frac := 1.0
	if elems > 0 {
		frac = float64(res.Covered) / float64(elems)
	}
	eps := sk.Params().Eps
	threshold := 1 - lambdaP - eps*math.Log(1/lambdaP)
	return SubmoduleResult{
		OK:             frac >= threshold,
		Sets:           res.Sets,
		SketchFraction: frac,
	}
}

// OutliersResult reports a run of Algorithm 5.
type OutliersResult struct {
	// Sets is the selected cover.
	Sets []int
	// GuessK is the accepted guess k′ for the optimal cover size.
	GuessK int
	// Guesses is the number of parallel guesses maintained.
	Guesses int
	// SketchFraction is the covered fraction inside the accepted sketch.
	SketchFraction float64
	// TotalEdges is the total number of edges stored across all guess
	// sketches (the algorithm's space).
	TotalEdges int
	// TotalBytes approximates the resident bytes across all sketches.
	TotalBytes int64
	// Exhausted is true when every guess up to n failed (with paper
	// parameters this happens with probability ≤ 1/n; with overridden
	// space budgets it can happen more often). The largest-guess solution
	// is still returned in Sets.
	Exhausted bool
}

// SetCoverOutliers runs Algorithm 5: one pass over the stream maintaining
// a sketch per geometric guess k′ ∈ {1, (1+ε/3), (1+ε/3)², …, n} of the
// optimal cover size, then the first guess whose Algorithm-4 check passes
// yields the answer. The solution has size at most (1+ε)·ln(1/λ)·k* and
// covers at least a 1−λ fraction of the elements, with probability
// 1 − 1/n (Theorem 3.3).
func SetCoverOutliers(st stream.Stream, numSets int, lambda float64, opt Options) (*OutliersResult, error) {
	if numSets <= 0 {
		return nil, fmt.Errorf("algorithms: SetCoverOutliers needs positive numSets")
	}
	if !(lambda > 0 && lambda <= 1/math.E) {
		return nil, fmt.Errorf("algorithms: lambda must be in (0, 1/e], got %v", lambda)
	}
	eps := opt.eps()
	// Algorithm 5 line 1.
	epsP := lambda * (1 - math.Exp(-eps/2))
	lambdaP := lambda * math.Exp(-eps/2)
	// Sketch accuracy from Algorithm 4 line 1: ε = ε′ / (13·ln(1/λ′)).
	epsSketch := epsP / (13 * math.Log(1/lambdaP))
	if epsSketch >= 1 {
		epsSketch = 0.999
	}
	deltaPP := 2 + math.Log(float64(numSets))

	// Geometric guesses k′ = (1+ε/3)^i clamped to [1, n].
	step := eps / 3
	if opt.GuessStep > 0 {
		step = opt.GuessStep
	}
	guesses := guessGrid(numSets, step)
	sketches := make([]*core.Sketch, len(guesses))
	for i, kp := range guesses {
		k := int(math.Ceil(float64(kp) * math.Log(1/lambdaP)))
		if k < 1 {
			k = 1
		}
		sk, err := core.NewSketch(opt.sketchParams(numSets, k, epsSketch, deltaPP))
		if err != nil {
			return nil, err
		}
		sketches[i] = sk
	}

	// Single pass feeding every guess sketch.
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		for _, sk := range sketches {
			sk.AddEdge(e)
		}
	}

	res := &OutliersResult{Guesses: len(guesses)}
	for _, sk := range sketches {
		st := sk.Stats()
		res.TotalEdges += st.EdgesKept
		res.TotalBytes += st.Bytes
	}
	for i, kp := range guesses {
		sub := CoverSubmodule(sketches[i], kp, lambdaP)
		res.Sets = sub.Sets
		res.GuessK = kp
		res.SketchFraction = sub.SketchFraction
		if sub.OK {
			return res, nil
		}
	}
	res.Exhausted = true
	return res, nil
}

// guessGrid returns the geometric guess values 1, (1+step), (1+step)², …
// rounded up to distinct integers, ending with n.
func guessGrid(n int, step float64) []int {
	if step <= 0 {
		step = 0.1
	}
	var out []int
	last := 0
	for v := 1.0; ; v *= 1 + step {
		k := int(math.Ceil(v))
		if k > n {
			break
		}
		if k != last {
			out = append(out, k)
			last = k
		}
	}
	if last != n {
		out = append(out, n)
	}
	return out
}

// MultiPassResult reports a run of Algorithm 6.
type MultiPassResult struct {
	// Sets is the final set cover.
	Sets []int
	// Covered is the number of elements the solution covers.
	Covered int
	// Passes is the number of stream passes consumed.
	Passes int
	// Rounds reports each iteration's accepted guess and selection size.
	Rounds []MultiPassRound
	// ResidualEdges is the number of edges stored to build G_r.
	ResidualEdges int
	// PeakEdges is the maximum number of edges held at any time across
	// sketches and the residual graph.
	PeakEdges int
}

// MultiPassRound is one iteration of Algorithm 6.
type MultiPassRound struct {
	Round      int
	PickedSets int
	GuessK     int
	Exhausted  bool
}

// SetCoverMultiPass runs Algorithm 6 with r iterations: each of the first
// r−1 iterations runs Algorithm 5 with λ = m^{−1/(2+r)} on the residual
// instance (two passes each: one to mark covered elements, one to build
// the sketches); a final pass collects the residual graph G_r which is
// solved by the offline greedy. The result covers every non-isolated
// element and has size at most (1+ε)·ln(m)·k* w.h.p. (Theorem 3.4).
func SetCoverMultiPass(st stream.Resettable, numSets, numElems, r int, opt Options) (*MultiPassResult, error) {
	if numSets <= 0 || numElems <= 0 {
		return nil, fmt.Errorf("algorithms: SetCoverMultiPass needs positive dimensions")
	}
	if r < 1 {
		return nil, fmt.Errorf("algorithms: SetCoverMultiPass needs r >= 1, got %d", r)
	}
	lambda := math.Pow(float64(numElems), -1/(2+float64(r)))
	if lambda > 1/math.E {
		lambda = 1 / math.E
	}
	opt.NumElems = numElems

	covered := make([]bool, numElems)
	selected := make([]bool, numSets)
	out := &MultiPassResult{}
	var solution []int

	markPass := func() {
		st.Reset()
		out.Passes++
		for {
			e, ok := st.Next()
			if !ok {
				return
			}
			if selected[e.Set] {
				covered[e.Elem] = true
			}
		}
	}

	for i := 1; i <= r-1; i++ {
		// Pass A: mark elements covered by the current selection
		// (trivially empty in iteration 1, still one pass as in §3).
		markPass()
		// Pass B: Algorithm 5 on the residual instance.
		st.Reset()
		out.Passes++
		filtered := stream.Func(func() (bipartite.Edge, bool) {
			for {
				e, ok := st.Next()
				if !ok {
					return bipartite.Edge{}, false
				}
				if !covered[e.Elem] {
					return e, true
				}
			}
		})
		roundOpt := opt
		roundOpt.Seed = opt.Seed + uint64(i)*0x9e3779b97f4a7c15
		res, err := SetCoverOutliers(filtered, numSets, lambda, roundOpt)
		if err != nil {
			return nil, err
		}
		picked := 0
		for _, s := range res.Sets {
			if !selected[s] {
				selected[s] = true
				solution = append(solution, s)
				picked++
			}
		}
		if res.TotalEdges > out.PeakEdges {
			out.PeakEdges = res.TotalEdges
		}
		out.Rounds = append(out.Rounds, MultiPassRound{
			Round:      i,
			PickedSets: picked,
			GuessK:     res.GuessK,
			Exhausted:  res.Exhausted,
		})
	}

	// Final pass (the "one extra pass" of Section 3): simultaneously mark
	// elements covered by the last iteration's picks and buffer the edges
	// of elements not yet known to be covered. An edge can be buffered
	// before its element's covering edge arrives, so the buffer is
	// filtered afterwards; the transient memory is bounded by the edges
	// of G_{r-1}, within the theorem's O~(n·m^{O(1/r)}) budget.
	st.Reset()
	out.Passes++
	var buffer []bipartite.Edge
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if selected[e.Set] {
			covered[e.Elem] = true
		}
		if !covered[e.Elem] {
			buffer = append(buffer, e)
		}
	}
	residual := buffer[:0]
	for _, e := range buffer {
		if !covered[e.Elem] {
			residual = append(residual, e)
		}
	}
	out.ResidualEdges = len(residual)
	if len(buffer) > out.PeakEdges {
		out.PeakEdges = len(buffer)
	}
	coveredCount := 0
	for _, c := range covered {
		if c {
			coveredCount++
		}
	}
	if len(residual) > 0 {
		gr, err := bipartite.FromEdges(numSets, numElems, residual)
		if err != nil {
			return nil, fmt.Errorf("algorithms: residual graph: %w", err)
		}
		res := greedy.SetCover(gr)
		for _, s := range res.Sets {
			if !selected[s] {
				selected[s] = true
				solution = append(solution, s)
			}
		}
		// Residual elements are disjoint from the already-covered ones,
		// and the greedy covers every non-isolated element of G_r.
		coveredCount += gr.CoveredElems()
	}
	out.Sets = solution
	out.Covered = coveredCount
	return out, nil
}
