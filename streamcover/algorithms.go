package streamcover

import (
	"repro/internal/algorithms"
	"repro/internal/core"
)

// Options tunes the streaming algorithms. It is a type of its own, not
// an alias of the engine's options, so that the internal tuning knobs
// (degree cap, guess-grid step) stay unpublished.
type Options struct {
	// Eps is the accuracy parameter ε ∈ (0, 1] of the approximation
	// guarantees (default 0.5). Smaller ε tightens the guarantee and
	// grows the sketch as 1/ε³.
	Eps float64
	// Seed makes runs deterministic. Two runs with the same seed, stream
	// content and parameters return identical results regardless of edge
	// order (up to degree-cap tie-breaking; see the package tests).
	Seed uint64
	// NumElems is m when known; it only tunes a log log m factor of the
	// default sketch budget.
	NumElems int
	// EdgeBudget caps the sketch at an explicit number of edges. Zero
	// selects the paper's O~(n) formula, whose constants are conservative
	// — for practical runs a budget of 50–100 edges per set is plenty
	// (see `covbench -run thm31-kcover`).
	EdgeBudget int
	// SpaceFactor scales the paper's formula budget instead of replacing
	// it (ignored when EdgeBudget is set).
	SpaceFactor float64
}

func (o Options) internal() algorithms.Options {
	return algorithms.Options{
		Eps:         o.Eps,
		Seed:        o.Seed,
		NumElems:    o.NumElems,
		EdgeBudget:  o.EdgeBudget,
		SpaceFactor: o.SpaceFactor,
	}
}

// SketchStats reports the space used by a run's sketch(es).
type SketchStats struct {
	// EdgesStored is the peak number of edges held.
	EdgesStored int
	// ElementsStored is the number of sampled elements held at the end.
	ElementsStored int
	// Bytes approximates the resident size of the sketch payload.
	Bytes int64
	// EdgesSeen is the number of stream edges consumed.
	EdgesSeen int64
}

func statsFrom(s core.Stats) SketchStats {
	return SketchStats{
		EdgesStored:    s.PeakEdges,
		ElementsStored: s.ElementsKept,
		Bytes:          s.Bytes,
		EdgesSeen:      s.EdgesSeen,
	}
}

// MaxCoverageResult reports a MaxCoverage run.
type MaxCoverageResult struct {
	// Sets is the chosen solution, at most k set ids.
	Sets []int
	// EstimatedCoverage estimates C(Sets) from the sketch (Lemma 2.2);
	// it is within ±ε·Opt_k of the truth w.h.p.
	EstimatedCoverage float64
	// Sketch reports space usage.
	Sketch SketchStats
}

// MaxCoverage solves k-cover over a single pass of the edge stream
// (Algorithm 3 / Theorem 3.1): the returned family of at most k sets is a
// (1 − 1/e − ε)-approximation of the best possible coverage, with
// probability 1 − 1/n, using O~(n) space. numSets is n, the number of
// sets edges may refer to.
func MaxCoverage(st Stream, numSets, k int, opt Options) (*MaxCoverageResult, error) {
	res, err := algorithms.KCover(st, numSets, k, opt.internal())
	if err != nil {
		return nil, err
	}
	return &MaxCoverageResult{
		Sets:              res.Sets,
		EstimatedCoverage: res.EstimatedCoverage,
		Sketch:            statsFrom(res.Sketch),
	}, nil
}

// OutlierCoverResult reports a SetCoverWithOutliers run.
type OutlierCoverResult struct {
	// Sets covers at least a 1−λ fraction of the elements w.h.p.
	Sets []int
	// GuessK is the accepted geometric guess of the optimal cover size.
	GuessK int
	// Sketch aggregates space across the parallel guess sketches.
	Sketch SketchStats
	// Exhausted reports that no guess passed the acceptance check (the
	// best-effort solution is still returned); with paper-sized budgets
	// this has probability at most 1/n.
	Exhausted bool
}

// SetCoverWithOutliers finds, in one pass, a family covering at least a
// 1−λ fraction of the elements whose size is at most (1+ε)·ln(1/λ) times
// the optimal full set cover (Algorithm 5 / Theorem 3.3). λ must lie in
// (0, 1/e].
func SetCoverWithOutliers(st Stream, numSets int, lambda float64, opt Options) (*OutlierCoverResult, error) {
	res, err := algorithms.SetCoverOutliers(st, numSets, lambda, opt.internal())
	if err != nil {
		return nil, err
	}
	return &OutlierCoverResult{
		Sets:   res.Sets,
		GuessK: res.GuessK,
		Sketch: SketchStats{
			EdgesStored: res.TotalEdges,
			Bytes:       res.TotalBytes,
		},
		Exhausted: res.Exhausted,
	}, nil
}

// SetCoverResult reports a SetCover run.
type SetCoverResult struct {
	// Sets covers every non-isolated element.
	Sets []int
	// Covered is the number of elements Sets covers.
	Covered int
	// Passes is the number of stream passes consumed (2r − 1).
	Passes int
	// PeakEdges is the peak number of edges held at any time.
	PeakEdges int
	// ResidualEdges is the size of the residual graph G_r buffered by the
	// final pass — the n·m^{3/(2+r)} term of the space bound.
	ResidualEdges int
}

// SetCover finds a full set cover in 2r−1 passes whose size is at most
// (1+ε)·ln(m) times optimal w.h.p., holding O~(n·m^{3/(2+r)} + m) edges
// (Algorithm 6 / Theorem 3.4). Larger r trades passes for space.
func SetCover(st ResettableStream, numSets, numElems, r int, opt Options) (*SetCoverResult, error) {
	res, err := algorithms.SetCoverMultiPass(st, numSets, numElems, r, opt.internal())
	if err != nil {
		return nil, err
	}
	return &SetCoverResult{
		Sets:          res.Sets,
		Covered:       res.Covered,
		Passes:        res.Passes,
		PeakEdges:     res.PeakEdges,
		ResidualEdges: res.ResidualEdges,
	}, nil
}

// Sketch is the paper's H≤n coverage sketch, exposed directly for users
// who want to build once and reuse: feed a stream, then estimate the
// coverage of arbitrary families or extract a compact instance to run
// custom algorithms on (any α-approximation on the sketch is an α−O(ε)
// approximation on the input, Theorem 2.7).
type Sketch struct {
	inner *core.Sketch
}

// SketchParams sizes a standalone sketch; K is the largest family size
// whose coverage will be queried with guarantee.
type SketchParams struct {
	// NumSets is n, the number of sets edges may refer to.
	NumSets int
	// K is the largest family size queried with guarantee.
	K int
	// Eps is the accuracy parameter (as in Options.Eps).
	Eps float64
	// Seed drives hashing, making the sketch deterministic.
	Seed uint64
	// NumElems is m when known (tunes the default budget only).
	NumElems int
	// EdgeBudget caps the sketch at an explicit number of edges
	// (0 = the paper's formula; see Options.EdgeBudget).
	EdgeBudget int
	// SpaceFactor scales the formula budget (see Options.SpaceFactor).
	SpaceFactor float64
}

// BuildSketch consumes the whole stream into a fresh H≤n sketch.
func BuildSketch(st Stream, p SketchParams) (*Sketch, error) {
	inner, err := core.NewSketch(core.Params{
		NumSets:     p.NumSets,
		NumElems:    p.NumElems,
		K:           p.K,
		Eps:         p.Eps,
		Seed:        p.Seed,
		EdgeBudget:  p.EdgeBudget,
		SpaceFactor: p.SpaceFactor,
	})
	if err != nil {
		return nil, err
	}
	inner.AddStream(st)
	return &Sketch{inner: inner}, nil
}

// EstimateCoverage estimates C(sets) on the original input from the
// sketch alone (within ±ε·Opt_K w.h.p. for |sets| ≤ K, Lemma 2.2).
func (s *Sketch) EstimateCoverage(sets []int) float64 {
	return s.inner.EstimateCoverage(sets)
}

// Instance extracts the sketch as a compact coverage instance (set ids
// preserved; elements renumbered) for running custom algorithms.
func (s *Sketch) Instance() *Instance {
	g, _ := s.inner.Graph()
	return &Instance{g: g}
}

// SamplingProbability returns p*, the effective element-sampling rate.
func (s *Sketch) SamplingProbability() float64 { return s.inner.PStar() }

// Stats reports the sketch's space usage.
func (s *Sketch) Stats() SketchStats { return statsFrom(s.inner.Stats()) }
