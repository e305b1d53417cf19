package server

import (
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// This file carries a sketch engine's query graph from one snapshot to the
// next at the cost of what changed (DESIGN.md §7, "Adopt"). A one-delta
// refresh publishes the previous view with the shard delta cuts merged in,
// so the graph of the new view is the previous graph less the elements
// that left — the previous view's priority suffix at or above the new bar,
// and the elements whose lists a delta replaced — plus the delta elements
// the new view keeps, each with its final list. Elements are slots of one
// bipartite.SlotSets that the engine owns: a leaving element's slot is
// marked absent, a kept delta element gets a new slot appended to its sets,
// and every snapshot reads its own version.

// compactAbsentShare is the share of list entries that absent slots may
// hold before a fold compacts the chain back to a plain transpose of its
// view. An absent entry costs every greedy marginal that scans its set, on
// every query; a compaction costs one full transpose, on one refresh. The
// mean cost per refresh, compactions spread over the folds between them,
// is about flat from a quarter to a half; at the low end a compaction comes
// about one refresh in six at mixed-fresh rates and a query's greedy pays
// at most about a third more (DESIGN.md §7 has the measurements).
const compactAbsentShare = 1.0 / 4

// graphChain is the engine's slot structure: the graph of the published
// snapshot seq, whose view is view, as a version of sets, in which the
// element at position i of view is slot slots[i]. The engine reads and
// advances it only under chainMu.
type graphChain struct {
	seq   uint64
	view  *core.View
	sets  *bipartite.SlotSets
	slots []uint32
}

// newGraphChain starts a chain at snapshot seq from g, the full transpose
// of its view v (View.Graph), whose lists it copies: the element at
// position i is slot i.
func newGraphChain(seq uint64, v *core.View, g *bipartite.Graph) *graphChain {
	c := &graphChain{seq: seq, view: v, sets: bipartite.NewSlotSets(g), slots: make([]uint32, g.NumElems())}
	for i := range c.slots {
		c.slots[i] = uint32(i)
	}
	return c
}

// fold advances the chain to next, the view snapshot seq publishes, which
// MergeViews made of the chain's view and deltas (the shard delta cuts), and
// returns next's graph. Between two consecutive kept delta elements next and
// the chain's view hold the same elements, so their slots are copied in
// runs, and a kept delta element the chain's view held is the one at the
// head of the next run; nothing walks an edge the deltas did not bring.
// When absent slots already hold more than compactAbsentShare of the
// entries, it compacts instead: next's graph is a full transpose, and the
// chain starts again from it. An error leaves the chain unusable.
func (c *graphChain) fold(seq uint64, next *core.View, deltas []*core.View) (g *bipartite.Graph, compacted bool, err error) {
	if all, absent := c.sets.Entries(); float64(absent) > compactAbsentShare*float64(all) {
		if g, _, err = next.Graph(); err != nil {
			return nil, false, err
		}
		*c = *newGraphChain(seq, next, g)
		return g, true, nil
	}
	slots := make([]uint32, next.Stats().ElementsKept)
	i, j := 0, 0 // positions in next and in the chain's view
	for _, at := range next.Positions(deltas...) {
		if at-i > len(c.slots)-j {
			return nil, false, fmt.Errorf("server: query graph: snapshot %d is not the previous view with its deltas folded in", seq)
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
		return nil, false, fmt.Errorf("server: query graph: snapshot %d is not the previous view with its deltas folded in", seq)
	}
	j += copy(slots[i:], c.slots[j:])
	for ; j < len(c.slots); j++ { // at or above next's bar
		_, old := c.view.At(j)
		c.sets.Remove(c.slots[j], old)
	}
	c.seq, c.view, c.slots = seq, next, slots
	return c.sets.Graph(), false, nil
}

// startChain offers the chain g, the graph of snapshot s's first
// materialization (the mode's full build): when s is the published
// snapshot of a sketch engine and no chain runs, the chain starts there.
func (e *Engine) startChain(s *Snapshot, g *bipartite.Graph) {
	v, ok := s.state.(*core.View)
	e.chainMu.Lock()
	defer e.chainMu.Unlock()
	if ok && e.chain == nil && e.snap.Load() == s {
		e.chain = newGraphChain(s.Seq, v, g)
	}
}

// publish stores snap as the published snapshot. When the build was one
// delta on the snapshot the chain describes, it first folds the chain
// forward and hands snap the graph; any other build drops the chain. The
// caller holds refreshMu.
func (e *Engine) publish(snap *Snapshot, prev *Snapshot, deltas []*core.View) {
	e.chainMu.Lock()
	defer e.chainMu.Unlock()
	c := e.chain
	e.chain = nil
	next, isView := snap.state.(*core.View)
	if deltas != nil && c != nil && c.seq == prev.Seq && isView {
		start := time.Now()
		g, compacted, err := c.fold(snap.Seq, next, deltas)
		if err == nil {
			e.chain, snap.folded = c, g
			if compacted {
				e.graphBuilds.Add(1)
			} else {
				e.graphFolds.Add(1)
			}
			e.materializeNanos.Add(int64(time.Since(start)))
		}
	}
	e.snap.Store(snap)
}
