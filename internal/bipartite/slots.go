package bipartite

import "repro/internal/bitset"

// SlotSets is the set side of a query graph carried from one version of an
// instance to the next at the cost of what changed. Elements are slots:
// numbers that stay put for as long as their element does. Each set's list
// only ever grows at its end, and an element that leaves keeps its entries
// and is marked absent instead. Graph takes an immutable version — every
// set's current length and the current absent mask — that shares the
// lists' storage with every version taken before and after it.
//
// One goroutine owns a SlotSets and calls its methods; the versions it hands
// out may be read by any number of goroutines meanwhile. That is safe
// because the owner only ever writes past the lengths a version reads up
// to: an append that does not fit its list's room moves the list to new
// storage, and the versions taken before keep the old one.
type SlotSets struct {
	lists   [][]uint32    // per set: its slots, ascending, absent ones included
	size    []int32       // per set: its present slots
	absent  bitset.Bitset // owned; a version gets a copy
	slots   int           // slots handed out
	gone    int           // absent slots
	entries int           // list entries, absent slots' included
	lost    int           // entries of absent slots
}

// NewSlotSets lays out g, a graph with no absent elements, as slot lists
// in which element e is slot e. Each set's list is copied into room for
// twice its length, so appends move a list only once it has doubled; g is
// only read.
func NewSlotSets(g *Graph) *SlotSets {
	backing := make([]uint32, 2*g.NumEdges())
	s := &SlotSets{
		lists:   make([][]uint32, g.numSets),
		size:    make([]int32, g.numSets),
		absent:  bitset.New(g.numElems),
		slots:   g.numElems,
		entries: g.NumEdges(),
	}
	at := 0
	for set := range s.lists {
		l := g.Set(set)
		s.lists[set] = append(backing[at:at:at+2*len(l)], l...)
		s.size[set] = int32(len(l))
		at += 2 * len(l)
	}
	for e := 0; e < g.numElems; e++ {
		if g.ElemDegree(e) == 0 {
			s.Remove(uint32(e), nil)
		}
	}
	return s
}

// Add gives a new element the next slot, appends it to the lists of sets
// (ids below the number of sets) and returns the slot. The slot is larger
// than every slot before it, so every list stays ascending. An element with
// no sets is absent from the start.
func (s *SlotSets) Add(sets []uint32) uint32 {
	slot := s.slots
	s.slots++
	for _, set := range sets {
		s.lists[set] = append(s.lists[set], uint32(slot))
		s.size[set]++
	}
	s.entries += len(sets)
	if slot >= s.absent.Capacity() {
		s.absent = append(s.absent, 0)
	}
	if len(sets) == 0 {
		s.Remove(uint32(slot), nil)
	}
	return uint32(slot)
}

// Remove marks a slot's element absent from the next version on; sets are
// the sets it was added to. Its entries stay in the lists. Removing an
// absent slot again changes nothing.
func (s *SlotSets) Remove(slot uint32, sets []uint32) {
	if s.absent.Get(int(slot)) {
		return
	}
	s.absent.Set(int(slot))
	s.gone++
	s.lost += len(sets)
	for _, set := range sets {
		s.size[set]--
	}
}

// Entries returns the number of list entries, absent slots' included, and
// how many of them belong to absent slots.
func (s *SlotSets) Entries() (all, absent int) { return s.entries, s.lost }

// Graph returns the current version: a Graph over slots 0..n−1 (n = slots
// handed out so far) whose present elements are the slots not removed. It
// copies one list header and one size per set and the absent mask, nothing
// per edge.
func (s *SlotSets) Graph() *Graph {
	g := &Graph{
		numSets:  len(s.lists),
		numElems: s.slots,
		lists:    make([][]uint32, len(s.lists)),
		sizes:    append([]int32(nil), s.size...),
		live:     s.slots - s.gone,
		edges:    s.entries - s.lost,
	}
	for set, l := range s.lists {
		g.lists[set] = l[:len(l):len(l)] // a version never appends into the owner's room
	}
	if s.gone > 0 {
		g.absent = bitset.New(s.slots)
		copy(g.absent, s.absent)
	}
	return g
}
