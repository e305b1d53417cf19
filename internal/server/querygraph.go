package server

import (
	"errors"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// This file carries a sketch snapshot's query graph to the snapshot built
// on it at the cost of what changed (DESIGN.md §7, "Adopt"). A snapshot
// built on a base (Engine.MergeSnapshot) is the base's view with deltas
// merged in — shard delta cuts on an engine refresh, the inputs' deltas on
// a cluster view — so its graph is the base's graph less the elements that
// left — the base view's priority suffix at or above the new bar, and the
// elements whose lists a delta replaced — plus the delta elements the new
// view keeps, each with its final list. Elements are slots of one
// bipartite.SlotSets that the chain owns and hands from snapshot to
// snapshot: a leaving element's slot is marked absent, a kept delta element
// gets a new slot appended to its sets, and every snapshot reads its own
// version.

// compactAbsentShare is the share of list entries that absent slots may
// hold before a fold compacts the chain back to a plain transpose of its
// view. An absent entry costs every greedy marginal that scans its set, on
// every query; a compaction costs one full transpose, on one refresh. The
// mean cost per refresh, compactions spread over the folds between them,
// is about flat from a quarter to a half; at the low end a compaction comes
// about one refresh in six at mixed-fresh rates and a query's greedy pays
// at most about a third more (DESIGN.md §7 has the measurements).
const compactAbsentShare = 1.0 / 4

// graphChain is a sketch snapshot's slot structure: the graph of the
// snapshot whose view is view, as a version of sets, in which the element at
// position i of view is slot slots[i]. A snapshot holds it until a snapshot
// built on it takes it (Snapshot.chain); only the holder advances it.
type graphChain struct {
	view  *core.View
	sets  *bipartite.SlotSets
	slots []uint32
}

// newGraphChain starts a chain at view v from g, its full transpose
// (View.Graph), whose lists it copies: the element at position i is slot i.
func newGraphChain(v *core.View, g *bipartite.Graph) *graphChain {
	c := &graphChain{view: v, sets: bipartite.NewSlotSets(g), slots: make([]uint32, g.NumElems())}
	for i := range c.slots {
		c.slots[i] = uint32(i)
	}
	return c
}

// fold advances the chain to next, which MergeViews made of the chain's view
// and deltas (shard delta cuts, or a cluster view's input deltas), and
// returns next's graph. Between two consecutive kept delta elements next and
// the chain's view hold the same elements, so their slots are copied in
// runs, and a kept delta element the chain's view held is the one at the
// head of the next run; nothing walks an edge the deltas did not bring.
// When absent slots already hold more than compactAbsentShare of the
// entries, it compacts instead: next's graph is a full transpose, and the
// chain starts again from it. An error leaves the chain unusable.
func (c *graphChain) fold(next *core.View, deltas []*core.View) (g *bipartite.Graph, compacted bool, err error) {
	if all, absent := c.sets.Entries(); float64(absent) > compactAbsentShare*float64(all) {
		if g, _, err = next.Graph(); err != nil {
			return nil, false, err
		}
		*c = *newGraphChain(next, g)
		return g, true, nil
	}
	slots := make([]uint32, next.Stats().ElementsKept)
	i, j := 0, 0 // positions in next and in the chain's view
	for _, at := range next.Positions(deltas...) {
		if at-i > len(c.slots)-j {
			return nil, false, errNotAFold
		}
		j += copy(slots[i:at], c.slots[j:])
		elem, sets := next.At(at)
		if j < len(c.slots) {
			if was, old := c.view.At(j); was == elem { // the delta replaced its list
				c.sets.Remove(c.slots[j], old)
				j++
			}
		}
		slots[at] = c.sets.Add(sets)
		i = at + 1
	}
	if len(slots)-i > len(c.slots)-j {
		return nil, false, errNotAFold
	}
	j += copy(slots[i:], c.slots[j:])
	for ; j < len(c.slots); j++ { // at or above next's bar
		_, old := c.view.At(j)
		c.sets.Remove(c.slots[j], old)
	}
	c.view, c.slots = next, slots
	return c.sets.Graph(), false, nil
}

// errNotAFold reports a fold asked of a view the chain's view and the
// deltas did not make; the chain is then unusable.
var errNotAFold = errors.New("server: query graph: the view is not the chain's view with its deltas folded in")

// chainTaken is what a snapshot's chain pointer holds once a snapshot built
// on it has taken its chain, or found none to take.
var chainTaken = new(graphChain)

// startChain starts s's chain from g, the full build of its view, unless a
// snapshot built on s came first: nothing would take the chain then.
func (s *Snapshot) startChain(g *bipartite.Graph) {
	if s.chain.Load() == nil {
		s.chain.CompareAndSwap(nil, newGraphChain(s.state.(*core.View), g))
	}
}

// takeChain moves base's chain to s, which MergeViews made of base's view
// and deltas, folded over them: s's first query finds its graph built. A
// chain moves once; when base has none (no query built its graph, or it is
// not a sketch snapshot) or the fold fails, s's first query builds in full
// and may start a chain there.
func (s *Snapshot) takeChain(base *Snapshot, deltas []*core.View) {
	c := base.chain.Swap(chainTaken)
	next, ok := s.state.(*core.View)
	if c == nil || c == chainTaken || !ok {
		return
	}
	start := time.Now()
	g, compacted, err := c.fold(next, deltas)
	if err != nil {
		return
	}
	s.chain.Store(c)
	s.folded = g
	if compacted {
		s.eng.graphBuilds.Add(1)
	} else {
		s.eng.graphFolds.Add(1)
	}
	s.eng.materializeNanos.Add(int64(time.Since(start)))
}
