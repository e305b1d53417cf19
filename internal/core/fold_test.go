package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/stream"
	"repro/internal/workload"
)

// mergeViewsElementwise is MergeViews without the run copy: the k-way walk
// that takes one element at a time. It is the reference the fast path is
// held to.
func mergeViewsElementwise(params Params, edgesSeen int64, views ...*View) *View {
	out := &View{params: params, edgesSeen: edgesSeen, off: []int64{0}}
	var heads []viewCursor
	for _, v := range views {
		if v == nil {
			continue
		}
		if v.evicted && (!out.evicted || priorityLess(v.barHash, v.barElem, out.barHash, out.barElem)) {
			out.evicted, out.barHash, out.barElem = true, v.barHash, v.barElem
		}
		if len(v.elems) > 0 {
			heads = append(heads, viewCursor{v: v})
		}
	}
	budget, degCap := params.EffectiveEdgeBudget(), params.EffectiveDegreeCap()
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftCursor(heads, i)
	}
	for len(heads) > 0 {
		h, e := heads[0].head()
		if out.evicted && !priorityLess(h, e, out.barHash, out.barElem) {
			break
		}
		if len(out.sets) >= budget {
			out.evicted, out.barHash, out.barElem = true, h, e
			break
		}
		start, lists := len(out.sets), 0
		for len(heads) > 0 {
			c := &heads[0]
			if ch, ce := c.head(); ch != h || ce != e {
				break
			}
			out.sets = append(out.sets, c.v.sets[c.v.off[c.i]:c.v.off[c.i+1]]...)
			lists++
			if c.i++; c.i == len(c.v.elems) {
				heads[0] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
			}
			siftCursor(heads, 0)
		}
		if lists > 1 {
			seg := out.sets[start:]
			sortSets(seg)
			out.sets = out.sets[:start+len(slices.Compact(seg))]
		}
		if len(out.sets)-start > degCap {
			out.sets = out.sets[:start+degCap]
		}
		out.hashes = append(out.hashes, h)
		out.elems = append(out.elems, e)
		out.off = append(out.off, int64(len(out.sets)))
	}
	return out
}

// sortSets sorts a set list ascending: the concatenated lists of one
// element that several inputs hold. Each is at most D long and an element
// rarely sits in many inputs, so the short case is an inline insertion
// sort; the generic sort takes the rest.
func sortSets(a []uint32) {
	if len(a) > 32 {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && a[j-1] > x; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// randomView builds a view by hand: the elements of hold and then
// distinct ones of [0, universe) up to n in all, in priority order, each
// with 1..maxDeg distinct sorted set ids (maxDeg may exceed the cap, which
// only the merge enforces), and with probability ½ a bar at one of the
// drawn elements, which drops it and everything above.
func randomView(rng *rand.Rand, params Params, universe, n, maxDeg int, hold []uint32) *View {
	hash := params.Priority().Of
	picked := map[uint32]bool{}
	type el struct {
		h uint64
		e uint32
	}
	var els []el
	for _, e := range hold {
		if !picked[e] {
			picked[e] = true
			els = append(els, el{hash(e), e})
		}
	}
	for len(els) < n {
		e := uint32(rng.IntN(universe))
		if !picked[e] {
			picked[e] = true
			els = append(els, el{hash(e), e})
		}
	}
	slices.SortFunc(els, func(a, b el) int {
		if priorityLess(a.h, a.e, b.h, b.e) {
			return -1
		}
		return 1
	})
	v := &View{params: params, off: []int64{0}, edgesSeen: int64(rng.IntN(1000))}
	if len(els) > 0 && rng.IntN(2) == 0 {
		k := rng.IntN(len(els))
		v.evicted, v.barHash, v.barElem = true, els[k].h, els[k].e
		els = els[:k]
	}
	for _, x := range els {
		sets := rng.Perm(params.NumSets)[:1+rng.IntN(maxDeg)]
		slices.Sort(sets)
		for _, s := range sets {
			v.sets = append(v.sets, uint32(s))
		}
		v.hashes = append(v.hashes, x.h)
		v.elems = append(v.elems, x.e)
		v.off = append(v.off, int64(len(v.sets)))
	}
	return v
}

// TestMergeViewsRunCopyEqualsElementWalk holds MergeViews, which copies
// whole stretches of its largest input, bit for bit to the walk that takes
// one element at a time, over random hand-built inputs: one to four of
// them (two to five past seed 400; a nil among them now and then), small universes so heads are
// often equal, budgets small enough that the cut falls inside a stretch,
// bars that fall inside another input's stretch, and lists longer than
// the cap. One large input beside small ones — the shape every fold has —
// is drawn as often as inputs of one size.
//
// Seeds past 400 draw the shapes the galloping run copy branches on, and
// each must come up in at least 40 of them: the largest input in every
// argument position, a twin of its size, elements it shares with two or
// more small inputs, a budget that ends on a run boundary or one edge
// either side of it, and a small input's bar between two of its elements.
// Three in four of those seeds keep every list within the cap and mark
// their inputs capped, so runs are not broken by over-cap lists and no
// input is scanned for them.
func TestMergeViewsRunCopyEqualsElementWalk(t *testing.T) {
	var equal, shared, boundary, barInRun int
	var positions [3]int
	for seed := uint64(1); seed <= 1200; seed++ {
		shaped := seed > 400
		rng := rand.New(rand.NewPCG(seed, 0xf01d))
		params := smallParams(12, 3, 1+rng.IntN(300), seed)
		params.DegreeCap = 1 + rng.IntN(5)
		universe := 20 + rng.IntN(400)
		count, maxDeg := 1+rng.IntN(4), params.DegreeCap+1
		if shaped {
			count++
			if rng.IntN(4) != 0 {
				maxDeg = params.DegreeCap
			}
		}
		views := make([]*View, count)
		var hot []uint32 // elements of the large input that small ones take too
		for i := range views {
			n := rng.IntN(30)
			if i == 0 && (seed%2 == 0 || shaped) {
				n = rng.IntN(universe)
			}
			if rng.IntN(10) == 0 {
				continue // a nil input
			}
			var hold []uint32
			if shaped && i > 0 {
				if i == 1 && views[0] != nil && rng.IntN(3) == 0 {
					n = len(views[0].elems) // a twin
				}
				if rng.IntN(2) == 0 {
					hold = hot
				}
			}
			views[i] = randomView(rng, params, universe, min(n, universe), maxDeg, hold)
			views[i].capped = maxDeg <= params.DegreeCap // as every constructor marks it
			if shaped && i == 0 && len(views[0].elems) > 0 {
				for range 1 + rng.IntN(4) {
					hot = append(hot, views[0].elems[rng.IntN(len(views[0].elems))])
				}
			}
		}
		if shaped {
			pos := rng.IntN(len(views))
			views[0], views[pos] = views[pos], views[0]
		}
		// The input MergeViews copies in runs: the first of the largest.
		big := -1
		for i, v := range views {
			if v != nil && len(v.elems) > 0 && (big < 0 || len(v.elems) > len(views[big].elems)) {
				big = i
			}
		}
		if shaped && big >= 0 && rng.IntN(3) == 0 {
			// Cut the budget on the edge total before an element a small
			// input holds, where a run of the large one ends, or one edge
			// either side of it.
			ref := mergeViewsElementwise(params, 0, views...)
			var at []int
			for k, e := range ref.elems {
				for i, v := range views {
					if i != big && v != nil && slices.Contains(v.elems, e) {
						at = append(at, k)
						break
					}
				}
			}
			if len(at) > 0 {
				params.EdgeBudget = max(1, int(ref.off[at[rng.IntN(len(at))]])+rng.IntN(3)-1)
				for _, v := range views {
					if v != nil {
						v.params = params
					}
				}
				boundary++
			}
		}
		edges := int64(rng.IntN(1 << 20))
		got, err := MergeViews(params, edges, views...)
		if err != nil {
			t.Fatal(err)
		}
		want := mergeViewsElementwise(params, edges, views...)
		if d := viewsDiffer(got, want); d != "" {
			t.Fatalf("seed %d (%d inputs, largest at %d, budget %d, D %d): run copy differs from the element walk: %s",
				seed, len(views), big, params.EdgeBudget, params.DegreeCap, d)
		}
		if !shaped || big < 0 {
			continue
		}
		positions[min(big, 2)]++
		large := views[big]
		holders := map[uint32]int{} // small inputs holding each element
		twin, barred := false, false
		for i, v := range views {
			if v == nil || i == big {
				continue
			}
			twin = twin || len(v.elems) == len(large.elems)
			for _, e := range v.elems {
				holders[e]++
			}
			if v.evicted {
				p := large.search(0, v.barHash, v.barElem)
				barred = barred || p > 0 && p < len(large.elems) && large.elems[p] != v.barElem
			}
		}
		if twin {
			equal++
		}
		if barred {
			barInRun++
		}
		if slices.ContainsFunc(want.elems, func(e uint32) bool {
			p := large.search(0, large.params.Priority().Of(e), e)
			return holders[e] >= 2 && p < len(large.elems) && large.elems[p] == e
		}) {
			shared++
		}
	}
	for name, n := range map[string]int{
		"a twin of the largest input's size": equal, "an element three inputs hold, the largest among them": shared,
		"a budget on a run boundary": boundary, "a small input's bar inside a run": barInRun,
		"largest input first": positions[0], "largest input second": positions[1], "largest input third or later": positions[2],
	} {
		if n < 40 {
			t.Errorf("shape %q drawn in only %d seeds", name, n)
		}
	}
}

// TestRestrictedDeltaRebuildsTheView is the property the delta exchange
// between cluster nodes rests on, on sketches with binding (D = 3) and
// non-binding caps. Each of two nodes runs shard sketches and publishes
// MergeViews(previous view, shard deltas) as its engine does. Then:
//   - a puller that holds a node's previous view and folds in the new
//     view restricted to the deltas' elements reaches the new view byte
//     for byte, round after round, and the restriction survives the wire;
//   - a cluster view that folds in every node's restricted delta equals
//     the merge of the nodes' full views — peers in the role of shards —
//     also when only one node moved.
func TestRestrictedDeltaRebuildsTheView(t *testing.T) {
	const (
		numSets  = 24
		numElems = 4000
		rounds   = 25
		shards   = 2
	)
	for _, degCap := range []int{3, numSets + 1} {
		for seed := uint64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("D=%d/seed=%d", degCap, seed)
			params := smallParams(numSets, 3, 150, seed)
			params.DegreeCap = degCap
			rng := rand.New(rand.NewPCG(seed, uint64(degCap)))
			type node struct {
				sks       []*Sketch
				seen      int64
				published *View // the node's own last view
				held      *View // what a puller built from restricted deltas
			}
			nodes := make([]*node, 2)
			for i := range nodes {
				nodes[i] = &node{sks: []*Sketch{MustNewSketch(params), MustNewSketch(params)}}
			}
			var cluster *View
			for r := 0; r < rounds; r++ {
				var restricted []*View
				for i, nd := range nodes {
					if r > 0 && rng.IntN(3) == 0 {
						continue // this node did not move
					}
					deltas := make([]*View, shards)
					for s, sk := range nd.sks {
						for n := rng.IntN(200); n > 0; n-- {
							sk.AddEdge(bipartite.Edge{Set: uint32(rng.IntN(numSets)), Elem: uint32(rng.IntN(numElems))})
							nd.seen++
						}
						if nd.published != nil {
							if hash, elem, ok := nd.published.Bar(); ok {
								sk.LowerBar(hash, elem)
							}
						}
						deltas[s] = sk.Cut(nd.published != nil)
					}
					next, err := MergeViews(params, nd.seen, append([]*View{nd.published}, deltas...)...)
					if err != nil {
						t.Fatal(err)
					}
					if nd.published == nil {
						nd.held = next
					} else {
						delta := next.Restrict(deltas...)
						wire, err := ReadView(bytes.NewReader(viewBytes(delta)))
						if err != nil {
							t.Fatalf("%s round %d node %d: restricted delta does not decode: %v", name, r, i, err)
						}
						if d := viewsDiffer(wire, delta); d != "" {
							t.Fatalf("%s round %d node %d: restricted delta changed on the wire: %s", name, r, i, d)
						}
						if nd.held, err = MergeViews(params, delta.edgesSeen, nd.held, wire); err != nil {
							t.Fatal(err)
						}
						restricted = append(restricted, delta)
					}
					if d := viewsDiffer(nd.held, next); d != "" {
						t.Fatalf("%s round %d node %d: previous view ∪ restricted delta differs from the new view: %s", name, r, i, d)
					}
					nd.published = next
				}
				seen := nodes[0].seen + nodes[1].seen
				want, err := MergeViews(params, seen, nodes[0].published, nodes[1].published)
				if err != nil {
					t.Fatal(err)
				}
				if r == 0 || len(restricted) < len(nodes) && rng.IntN(4) == 0 {
					cluster = want // a rebuild, now and then even when a fold would do
					continue
				}
				if cluster, err = MergeViews(params, seen, append([]*View{cluster}, restricted...)...); err != nil {
					t.Fatal(err)
				}
				if d := viewsDiffer(cluster, want); d != "" {
					t.Fatalf("%s round %d: cluster view ∪ restricted deltas differs from the merge of full views: %s", name, r, d)
				}
			}
		}
	}
}

var sinkView *View

// foldBenchEpoch is the epoch the fold and shed benchmarks stream: a Zipf
// graph over foldBenchElems elements, shuffled once per process. Epoch ep
// is a disjoint copy of it, its elements shifted by ep·foldBenchElems, as
// in the benchmark harness's instance.
var foldBenchEpoch = sync.OnceValue(func() []bipartite.Edge {
	inst := workload.Zipf(1000, foldBenchElems, foldBenchElems/2, 0.9, 0.7, 1)
	return stream.Drain(stream.Shuffled(inst.G, 2))
})

const (
	foldBenchElems  = 100_000
	foldBenchEpochs = 6
)

// foldBenchParams are the cluster-pair and mixed-fresh sketch parameters.
func foldBenchParams() Params {
	return Params{NumSets: 1000, NumElems: (foldBenchEpochs + 1) * foldBenchElems, K: 20, Eps: 0.3, Seed: 7, EdgeBudget: 200_000}
}

// relabelEpoch writes epoch ep of the first len(dst) edges of the bench
// epoch into dst (at most the whole epoch) and returns it, filtered by
// keep when keep is not nil.
func relabelEpoch(dst []bipartite.Edge, ep int, keep func(elem uint32) bool) []bipartite.Edge {
	base := foldBenchEpoch()
	out := dst[:0]
	for _, e := range base[:min(len(base), len(dst))] {
		e.Elem += uint32(ep * foldBenchElems)
		if keep == nil || keep(e.Elem) {
			out = append(out, e)
		}
	}
	return out
}

// BenchmarkMergeViewsFold is one fold of a refresh at cluster-pair sizes: a
// published view of about 38 000 elements holding the 200 000-edge budget
// after 3.2 million edges, and the delta one sketch cuts after 500 000 edges
// of a new epoch. No delta element meets the published view: the run copy
// takes the view between them.
func BenchmarkMergeViewsFold(b *testing.B) {
	benchFold(b, false)
}

// BenchmarkMergeViewsFoldMeeting is the fold of every cluster-pair round
// and every peer FoldDelta: the delta is cut mid-epoch, after two earlier
// 170 000-edge cuts of the same epoch were folded and published, so most
// delta elements already sit in the view with shorter lists and each
// takes the union of its two lists (meet-share is that fraction).
func BenchmarkMergeViewsFoldMeeting(b *testing.B) {
	benchFold(b, true)
}

func benchFold(b *testing.B, meeting bool) {
	params := foldBenchParams()
	sk := MustNewSketch(params)
	epoch := make([]bipartite.Edge, len(foldBenchEpoch()))
	for ep := 0; ep < foldBenchEpochs; ep++ {
		sk.AddEdges(relabelEpoch(epoch, ep, nil))
	}
	published := sk.Cut(false)
	shed := func() {
		if hash, elem, ok := published.Bar(); ok {
			sk.LowerBar(hash, elem)
		}
	}
	shed()
	chunk := epoch[:min(len(epoch), 500_000)]
	if meeting {
		// Two chunks of the new epoch folded and published, the third cut.
		chunks := relabelEpoch(epoch[:3*170_000], foldBenchEpochs, nil)
		for c := 0; c < 2; c++ {
			sk.AddEdges(chunks[c*170_000 : (c+1)*170_000])
			var err error
			if published, err = MergeViews(params, sk.edgesSeen, published, sk.Cut(true)); err != nil {
				b.Fatal(err)
			}
			shed()
		}
		chunk = chunks[2*170_000:]
	} else {
		chunk = relabelEpoch(chunk, foldBenchEpochs, nil)
	}
	sk.AddEdges(chunk)
	delta := sk.Cut(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := MergeViews(params, sk.edgesSeen, published, delta)
		if err != nil {
			b.Fatal(err)
		}
		sinkView = v
	}
	b.ReportMetric(float64(len(published.elems)), "base_elems")
	b.ReportMetric(float64(len(published.sets)), "base_edges")
	b.ReportMetric(float64(len(delta.elems)), "delta_elems")
	b.ReportMetric(float64(len(published.Positions(delta)))/float64(max(1, len(delta.elems))), "meet-share")
}
