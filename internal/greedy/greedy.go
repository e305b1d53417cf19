// Package greedy implements the offline approximation algorithms the
// paper's streaming algorithms run on top of their sketch: the classical
// greedy for maximum coverage (1 − 1/e, Nemhauser–Wolsey–Fisher [40]) and
// for (partial) set cover (ln m, and C(Greedy(k·ln(1/λ))) ≥ (1−λ)·Opt_k).
//
// All entry points use the lazy-greedy (accelerated greedy) evaluation
// order: cached marginal gains are kept in a max-heap and only the top
// candidate is re-evaluated, which is valid because coverage is submodular
// so marginals only shrink.
//
// Marginals come from a bipartite.CoverageEvaluator: on dense instances
// (sketch snapshots in particular) that is the bitset popcount engine,
// otherwise the stamp-array scan — the two produce identical integer
// gains, so the picked solution is bit-identical either way (pinned by
// the equivalence property tests in this package).
package greedy

import (
	"sync"

	"repro/internal/bipartite"
)

// Result reports a greedy run.
type Result struct {
	// Sets are the chosen set ids in pick order.
	Sets []int
	// Covered is the number of distinct elements covered by Sets.
	Covered int
	// Gains[i] is the marginal gain of the i-th pick; non-increasing.
	Gains []int
}

// candidate is a heap entry: a set with its cached (stale) marginal
// gain, packed into one word so the heap orders with a single integer
// compare — gain in the high 32 bits (descending) and the complemented
// set id in the low 32 (so equal gains break toward the smaller id).
// The order is a strict total order — distinct sets give distinct keys —
// so the maximum is unique and the algorithm is fully deterministic: it
// picks the same solution as the textbook scan-all greedy that keeps
// the first maximum.
type candidate uint64

func packCand(set, gain int) candidate {
	return candidate(uint64(uint32(gain))<<32 | uint64(^uint32(set)))
}

func (c candidate) set() int  { return int(^uint32(c)) }
func (c candidate) gain() int { return int(uint32(c >> 32)) }

// candHeap is a hand-rolled max-heap of packed candidates (no
// container/heap: the interface indirection costs more than the sift
// loops on the query hot path).
type candHeap []candidate

func (h candHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && h[l] > h[best] {
			best = l
		}
		if r < len(h) && h[r] > h[best] {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// init establishes the heap property over arbitrary contents.
func (h candHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// popTop removes the maximum (h[0]) and returns the shrunk heap.
func (h candHeap) popTop() candHeap {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	h.siftDown(0)
	return h
}

// Run is one lazy-greedy run over an immutable graph that stops where it
// is asked to and resumes from there: the evaluator, the candidate heap
// and the picks and gains made so far. The pick sequence does not depend
// on the stopping rule — candidate is a strict total order, and a run
// that stops leaves the verified top on the heap, so resuming re-derives
// exactly the pick an uninterrupted run would make next — which makes
// every rule's answer a prefix of one sequence. A rule is answered from
// the stored prefix when that already contains its stopping point, and
// extends the run otherwise. Safe for concurrent use; every Result is
// privately owned by its caller.
type Run struct {
	g *bipartite.Graph
	// full is g.CoveredElems(), the set-cover target, counted on first use.
	fullOnce sync.Once
	full     int

	mu  sync.Mutex // guards everything below
	cov bipartite.CoverageEvaluator
	h   candHeap
	// sets and gains are the picks so far; next is the verified gain of
	// h[0] when the last extension stopped on a rule (0: not known, or
	// the heap ran empty and the run is complete).
	sets, gains []int
	next        int
}

// NewRun starts a run on g with the coverage evaluator g.NewEvaluator
// picks (bitset-backed on dense instances such as sketch snapshots,
// epoch-stamped otherwise). g must not change afterwards.
func NewRun(g *bipartite.Graph) *Run {
	return NewRunWith(g, g.NewEvaluator())
}

// NewRunWith is NewRun over an explicit, fresh coverage evaluator.
func NewRunWith(g *bipartite.Graph, cov bipartite.CoverageEvaluator) *Run {
	n := g.NumSets()
	h := make(candHeap, 0, n)
	for s := 0; s < n; s++ {
		if l := g.SetLen(s); l > 0 {
			h = append(h, packCand(s, l))
		}
	}
	h.init()
	return &Run{g: g, cov: cov, h: h}
}

// MaxCover is the run stopped after at most k picks — the 1−1/e
// approximation of [40]. Picks with zero marginal gain are skipped, so
// len(Result.Sets) can be < k when fewer sets suffice to cover everything
// reachable. extended is the number of picks the call added to the run;
// 0 means the answer was read off the stored prefix.
func (r *Run) MaxCover(k int) (res Result, extended int) {
	return r.Budgeted(func(picked, covered, gain int) bool {
		return picked < k && gain > 0
	})
}

// SetCover is the run continued until every non-isolated element is
// covered; the classical ln(m)+1 approximation.
func (r *Run) SetCover() (res Result, extended int) {
	return r.PartialCover(r.CoveredElems())
}

// PartialCover is the run continued until at least targetCovered elements
// are covered (or no set adds coverage). With targetCovered = (1−λ)·m this
// is the set-cover-with-outliers greedy whose solution size is at most
// ln(1/λ)·k* (used by Algorithm 4 with k = k′·ln(1/λ′)).
func (r *Run) PartialCover(targetCovered int) (res Result, extended int) {
	return r.Budgeted(func(picked, covered, gain int) bool {
		return covered < targetCovered && gain > 0
	})
}

// CoveredElems is the graph's non-isolated element count (SetCover's
// target), counted once per run.
func (r *Run) CoveredElems() int {
	r.fullOnce.Do(func() { r.full = r.g.CoveredElems() })
	return r.full
}

// Budgeted is the run stopped where cont first returns false. cont is
// consulted before each pick with the number of picks so far, the elements
// they cover, and the best available marginal gain; it must be a pure
// function of those (it runs under the run's lock, possibly on picks
// made for an earlier caller).
func (r *Run) Budgeted(cont func(picked, covered, gain int) bool) (res Result, extended int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := 0
	for p, gain := range r.gains {
		if !cont(p, covered, gain) {
			return r.prefix(p, covered), 0
		}
		covered += gain
	}
	have := len(r.sets)
	if len(r.h) == 0 || r.next > 0 && !cont(have, covered, r.next) {
		return r.prefix(have, covered), 0
	}
	// Dispatch to a concrete-typed instantiation of the greedy loop when
	// the evaluator is one of the two known engines, so the per-marginal
	// method calls devirtualize and inline — on a snapshot graph the
	// bitset marginal is a handful of popcounts, and the dynamic dispatch
	// would cost as much as the work itself.
	switch c := r.cov.(type) {
	case *bipartite.BitsetCoverer:
		extend(r, c, cont)
	case *bipartite.Coverer:
		extend(r, c, cont)
	default:
		extend(r, r.cov, cont)
	}
	return r.prefix(len(r.sets), r.cov.Covered()), len(r.sets) - have
}

// prefix copies the first p picks, which cover covered elements, into a
// Result the caller owns (nil slices for p = 0, as a run that never
// picked returns).
func (r *Run) prefix(p, covered int) Result {
	return Result{
		Sets:    append([]int(nil), r.sets[:p]...),
		Covered: covered,
		Gains:   append([]int(nil), r.gains[:p]...),
	}
}

// extend is the greedy loop: it resumes the run where it stopped and
// picks until cont returns false or no set adds coverage. The heap and
// the pick lists live in locals for the duration of the loop.
func extend[E bipartite.CoverageEvaluator](r *Run, cov E, cont func(picked, covered, gain int) bool) {
	h, sets, gains := r.h, r.sets, r.gains
	next := 0
	for len(h) > 0 {
		top := h[0]
		set := top.set()
		// Refresh the cached gain; if it is still at least the runner-up's
		// cached gain it is the true maximum (submodularity).
		fresh := cov.Marginal(set)
		if fresh != top.gain() {
			if fresh <= 0 {
				h = h.popTop()
				continue
			}
			h[0] = packCand(set, fresh)
			h.siftDown(0)
			continue
		}
		if !cont(len(sets), cov.Covered(), fresh) {
			next = fresh
			break
		}
		h = h.popTop()
		cov.Add(set)
		sets = append(sets, set)
		gains = append(gains, fresh)
	}
	r.h, r.sets, r.gains, r.next = h, sets, gains, next
}

// MaxCover picks at most k sets of g greedily, maximizing coverage: a
// fresh Run stopped after k picks (see Run.MaxCover).
func MaxCover(g *bipartite.Graph, k int) Result {
	res, _ := NewRun(g).MaxCover(k)
	return res
}

// SetCover picks sets greedily until every non-isolated element is
// covered (see Run.SetCover).
func SetCover(g *bipartite.Graph) Result {
	res, _ := NewRun(g).SetCover()
	return res
}

// PartialCover picks sets greedily until at least targetCovered elements
// are covered or no set adds coverage (see Run.PartialCover).
func PartialCover(g *bipartite.Graph, targetCovered int) Result {
	res, _ := NewRun(g).PartialCover(targetCovered)
	return res
}

// Budgeted runs greedy until cont returns false (see Run.Budgeted).
func Budgeted(g *bipartite.Graph, cont func(picked, covered, gain int) bool) Result {
	res, _ := NewRun(g).Budgeted(cont)
	return res
}

// BudgetedWith is Budgeted over an explicit coverage evaluator instead
// of the one g.NewEvaluator picks. The equivalence property tests and
// the query-plane benchmarks use it to compare the stamp and bitset
// engines on identical instances; the Result is the same either way.
func BudgetedWith(g *bipartite.Graph, cov bipartite.CoverageEvaluator, cont func(picked, covered, gain int) bool) Result {
	res, _ := NewRunWith(g, cov).Budgeted(cont)
	return res
}

// CoverageOf evaluates C(sets) on g; convenience re-export for callers
// that already depend on this package.
func CoverageOf(g *bipartite.Graph, sets []int) int {
	return g.Coverage(sets)
}
