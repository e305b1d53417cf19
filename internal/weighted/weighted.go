// Package weighted extends the paper's machinery to weighted maximum
// coverage: elements carry non-negative weights and the goal is to pick
// k sets maximizing the total weight of their union. The paper treats
// the unweighted case; this extension follows the standard reduction to
// it: bucket elements into geometric weight classes [2^j, 2^{j+1}), keep
// one H≤n sketch per class (each class is a uniform subsample of its
// elements, so Lemma 2.2's concentration applies per class), and solve
// with a weighted lazy greedy on the union of the class sketches with
// every kept element's weight scaled by 1/p*_j of its class.
//
// The greedy stage inherits the classical 1−1/e guarantee for weighted
// coverage (a monotone submodular function), and each class estimate is
// (1±ε)-accurate w.h.p., so the end-to-end loss matches the unweighted
// pipeline up to the number of non-empty classes (a log(w_max/w_min)
// factor in space).
package weighted

import (
	"container/heap"
	"fmt"
	"math"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/stream"
)

// Instance is a coverage instance with element weights.
type Instance struct {
	G *bipartite.Graph
	// W[e] is the non-negative weight of element e; len(W) = NumElems.
	W []float64
}

// Validate checks dimensions and weight signs.
func (in Instance) Validate() error {
	if in.G == nil {
		return fmt.Errorf("weighted: nil graph")
	}
	if len(in.W) != in.G.NumElems() {
		return fmt.Errorf("weighted: %d weights for %d elements", len(in.W), in.G.NumElems())
	}
	for e, w := range in.W {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("weighted: bad weight %v for element %d", w, e)
		}
	}
	return nil
}

// Coverage returns the total weight of the union of the given sets.
func (in Instance) Coverage(sets []int) float64 {
	cov := bipartite.NewCoverer(in.G)
	total := 0.0
	for _, s := range sets {
		for _, e := range in.G.Set(s) {
			if !cov.IsCovered(e) {
				total += in.W[e]
			}
		}
		cov.Add(s)
	}
	return total
}

// --- weighted lazy greedy ---

type wCand struct {
	set  int
	gain float64
}

type wHeap []wCand

func (h wHeap) Len() int { return len(h) }
func (h wHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].set < h[j].set
}
func (h wHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wHeap) Push(x interface{}) { *h = append(*h, x.(wCand)) }
func (h *wHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GreedyResult reports a weighted greedy run.
type GreedyResult struct {
	Sets    []int
	Covered float64
	// CoveredElems is the number of (sketch) elements the solution
	// covers — the raw count behind the weighted Covered total.
	CoveredElems int
}

// Run is one weighted lazy-greedy run over an immutable instance that
// stops after the k picks it is asked for and resumes from there — the
// float-gain counterpart of greedy.Run. The loop consults k only between
// picks, so the pick sequence is the same whatever k stops it, and every
// k's answer is a prefix: the run stores, per pick, the running Covered
// sum and covered-element count, so a prefix is bit for bit what a
// one-shot run to that k returns. Safe for concurrent use; every result
// is privately owned by its caller.
type Run struct {
	mu  sync.Mutex
	in  Instance
	cov *bipartite.Coverer
	h   wHeap
	// sets are the picks so far; covered[i] and elems[i] are Covered and
	// CoveredElems after pick i.
	sets    []int
	covered []float64
	elems   []int
}

// NewRun validates in (panicking on a malformed instance, as MaxCover
// does) and starts a run on it. in must not change afterwards.
func NewRun(in Instance) *Run {
	if err := in.Validate(); err != nil {
		panic(err)
	}
	r := &Run{in: in, cov: bipartite.NewCoverer(in.G)}
	r.h = make(wHeap, 0, in.G.NumSets())
	for s := 0; s < in.G.NumSets(); s++ {
		if gain := r.marginal(s); gain > 0 {
			r.h = append(r.h, wCand{set: s, gain: gain})
		}
	}
	heap.Init(&r.h)
	return r
}

func (r *Run) marginal(s int) float64 {
	gain := 0.0
	for _, e := range r.in.G.Set(s) {
		if !r.cov.IsCovered(e) {
			gain += r.in.W[e]
		}
	}
	return gain
}

// MaxCover is the run stopped after at most k picks by weighted marginal
// gain — the 1−1/e approximation for weighted coverage. Deterministic:
// gain ties break by smaller set id (with an epsilon tolerance for float
// noise). extended is the number of picks the call added to the run; 0
// means the answer was read off the stored prefix.
func (r *Run) MaxCover(k int) (res GreedyResult, extended int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.sets)
	const tol = 1e-12
	for r.h.Len() > 0 && len(r.sets) < k {
		top := r.h[0]
		fresh := r.marginal(top.set)
		if math.Abs(fresh-top.gain) > tol*(1+math.Abs(top.gain)) {
			if fresh <= 0 {
				heap.Pop(&r.h)
				continue
			}
			r.h[0].gain = fresh
			heap.Fix(&r.h, 0)
			continue
		}
		if fresh <= 0 {
			break
		}
		heap.Pop(&r.h)
		r.cov.Add(top.set)
		total := fresh // 0.0 + fresh, as the running sum starts
		if n := len(r.covered); n > 0 {
			total = r.covered[n-1] + fresh
		}
		r.sets = append(r.sets, top.set)
		r.covered = append(r.covered, total)
		r.elems = append(r.elems, r.cov.Covered())
	}
	if p := min(max(k, 0), len(r.sets)); p > 0 {
		res = GreedyResult{
			Sets:         append([]int(nil), r.sets[:p]...),
			Covered:      r.covered[p-1],
			CoveredElems: r.elems[p-1],
		}
	}
	return res, len(r.sets) - have
}

// MaxCover picks at most k sets greedily by weighted marginal gain: a
// fresh Run stopped after k picks (see Run.MaxCover).
func MaxCover(in Instance, k int) GreedyResult {
	res, _ := NewRun(in).MaxCover(k)
	return res
}

// --- streaming weighted k-cover via per-class sketches ---

// Options configures the streaming weighted k-cover.
type Options struct {
	// Eps is the accuracy parameter of each class sketch.
	Eps float64
	// Seed drives all hashing.
	Seed uint64
	// NumElems is m when known.
	NumElems int
	// EdgeBudget / SpaceFactor size each class sketch (see core.Params).
	EdgeBudget  int
	SpaceFactor float64
}

// Result reports a streaming weighted k-cover run.
type Result struct {
	Sets []int
	// EstimatedCoverage is the class-scaled weighted coverage estimate.
	EstimatedCoverage float64
	// CoveredElems is the number of sampled (union) elements the
	// solution covers — the raw count behind the weighted estimate.
	CoveredElems int
	// Classes is the number of non-empty weight classes sketched.
	Classes int
	// EdgesStored is the total edges across class sketches.
	EdgesStored int
}

// classIndex returns the geometric weight class of w (base 2). Elements
// of weight zero are ignored (they never contribute coverage).
func classIndex(w float64) int {
	return int(math.Floor(math.Log2(w)))
}

// KCover solves weighted k-cover over one pass of the edge stream. The
// caller supplies weightOf, the element-weight oracle (weights are
// instance metadata, like the element ids themselves). Elements with
// zero weight are skipped.
//
// The pass feeds a class Bank (bank.go) — one H≤n sketch per non-empty
// geometric weight class — and solves the weighted greedy on the scaled
// union of its frozen view. The view assembles the union in a canonical
// class order, so KCover is fully deterministic given the options, and a
// sharded service merging per-shard bank views over the same edges
// answers bit-identically (pinned by the server equivalence tests).
func KCover(st stream.Stream, numSets, k int, weightOf func(elem uint32) float64, opt Options) (*Result, error) {
	b, err := NewBank(numSets, k, opt, weightOf)
	if err != nil {
		return nil, err
	}
	b.AddStream(st)
	return b.Solve(k)
}
