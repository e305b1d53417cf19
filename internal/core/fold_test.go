package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
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

// randomView builds a view by hand: up to n distinct elements of
// [0, universe) in priority order, each with 1..maxDeg distinct sorted set
// ids (maxDeg may exceed the cap, which only the merge enforces), and with
// probability ½ a bar at one of the drawn elements, which drops it and
// everything above.
func randomView(rng *rand.Rand, params Params, universe, n, maxDeg int) *View {
	hash := params.Priority().Of
	picked := map[uint32]bool{}
	type el struct {
		h uint64
		e uint32
	}
	var els []el
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
// whole stretches of one input, bit for bit to the walk that takes one
// element at a time, over random hand-built inputs: one to four of them
// (a nil among them now and then), small universes so heads are often
// equal, budgets small enough that the cut falls inside a stretch, bars
// that fall inside another input's stretch, and lists longer than the cap.
// One large input beside small ones — the shape every fold has — is drawn
// as often as inputs of one size.
func TestMergeViewsRunCopyEqualsElementWalk(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xf01d))
		params := smallParams(12, 3, 1+rng.IntN(300), seed)
		params.DegreeCap = 1 + rng.IntN(5)
		universe := 20 + rng.IntN(400)
		views := make([]*View, 1+rng.IntN(4))
		for i := range views {
			n := rng.IntN(30)
			if i == 0 && seed%2 == 0 {
				n = rng.IntN(universe)
			}
			if rng.IntN(10) == 0 {
				continue // a nil input
			}
			views[i] = randomView(rng, params, universe, min(n, universe), params.DegreeCap+1)
		}
		edges := int64(rng.IntN(1 << 20))
		got, err := MergeViews(params, edges, views...)
		if err != nil {
			t.Fatal(err)
		}
		want := mergeViewsElementwise(params, edges, views...)
		if d := viewsDiffer(got, want); d != "" {
			t.Fatalf("seed %d (%d inputs, budget %d, D %d): run copy differs from the element walk: %s",
				seed, len(views), params.EdgeBudget, params.DegreeCap, d)
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

// BenchmarkMergeViewsFold is one fold of a refresh at cluster-pair sizes: a
// published view of about 38 000 elements holding the 200 000-edge budget
// after 3.2 million edges, and the delta one sketch cuts after 500 000 edges
// of a new epoch. Epochs are disjoint relabelled copies of one Zipf graph,
// as in the benchmark harness's instance.
func BenchmarkMergeViewsFold(b *testing.B) {
	const (
		m      = 100_000
		epochs = 6
	)
	inst := workload.Zipf(1000, m, m/2, 0.9, 0.7, 1)
	base := stream.Drain(stream.Shuffled(inst.G, 2))
	params := Params{NumSets: 1000, NumElems: (epochs + 1) * m, K: 20, Eps: 0.3, Seed: 7, EdgeBudget: 200_000}
	sk := MustNewSketch(params)
	epoch := make([]bipartite.Edge, len(base))
	relabel := func(ep int) {
		for i, e := range base {
			epoch[i] = bipartite.Edge{Set: e.Set, Elem: e.Elem + uint32(ep*m)}
		}
	}
	for ep := 0; ep < epochs; ep++ {
		relabel(ep)
		sk.AddEdges(epoch)
	}
	published := sk.Cut(false)
	if hash, elem, ok := published.Bar(); ok {
		sk.LowerBar(hash, elem)
	}
	relabel(epochs)
	sk.AddEdges(epoch[:min(len(epoch), 500_000)])
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
}
