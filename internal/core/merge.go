package core

import "sync"

// This file makes H≤n sketches composable — the property behind the
// paper's companion distributed results (§1.3.2 and the conclusion): the
// sketch is a deterministic, order-invariant function of the *set* of
// edges it has absorbed, so sketches built over disjoint shards of a
// stream merge into exactly the sketch of the whole stream.
//
// Why merging kept edges suffices: a worker drops an edge only (a) above
// its eviction bar or (b) beyond the degree cap. For (a), the worker kept
// ≥ B edges strictly below its bar, so the global sketch — which sees a
// superset of edges — has a bar no higher, and would have dropped the
// edge too. For (b), every sketch keeps an element's D smallest set ids,
// and an id among the D smallest of the whole stream has fewer than D
// smaller ids in any shard, so the shard that saw it kept it: the D
// smallest of the shards' kept ids are the D smallest of the stream.
// Hence MergeViews(shard views) ≡ Sketch(whole stream), byte for byte,
// whether degree caps bind or not. The equivalence is pinned down by
// TestMergeEqualsGlobalSketch.

// absorbElem folds one kept element of another summary into s with the
// kept-edge policy of the per-edge absorb path but at element
// granularity: the hash is already known, so an element at or above s's
// eviction bar is skipped whole at one comparison — no SplitMix64 call
// per edge — and an admitted element's set list inserts into one
// resolved slot. Interleaving budget enforcement at element instead of
// edge boundaries is covered by the deferred-shrink argument (DESIGN.md
// §6): any schedule ending in shrink reaches the same fixed point.
// Stream accounting is untouched, as for absorb; callers finish with
// foldBar.
func (s *Sketch) absorbElem(hash uint64, elem uint32, sets []uint32) {
	if s.evicted && !priorityLess(hash, elem, s.barHash, s.barElem) {
		return
	}
	si, ok := s.index[elem]
	if !ok {
		si = s.alloc(elem, hash)
	}
	for _, set := range sets {
		s.addToSlot(si, set, false)
	}
	if s.totalEdges >= s.budget+s.slack {
		s.shrink()
	}
}

// foldBar finishes absorbing a summary whose eviction bar was (evicted,
// h, e): it lowers s's bar to at most that, evicts every kept element
// at or above the new bar, and re-enforces the budget. Shared by
// MergeView, LowerBar and the normalizing decode (serialize.go).
func (s *Sketch) foldBar(evicted bool, h uint64, e uint32) {
	if evicted {
		if !s.evicted || priorityLess(h, e, s.barHash, s.barElem) {
			s.evicted = true
			s.barHash = h
			s.barElem = e
		}
		for len(s.heap) > 0 && !priorityLess(s.heap[0].hash, s.heap[0].elem, s.barHash, s.barElem) {
			s.evictTop()
		}
	}
	s.shrink()
}

// LowerBar lowers the eviction bar to at most (hash, elem) and drops every
// kept element at or above it, as folding an empty summary with that bar
// would. A caller that knows the merge this sketch feeds already excludes
// everything from that priority up — a coordinator's published cut on an
// append-only stream, which only moves down — uses it to stop holding,
// freezing and admitting what no later merge can keep; MergeViews returns
// the same view with or without the shed (DESIGN.md §11).
func (s *Sketch) LowerBar(hash uint64, elem uint32) { s.foldBar(true, hash, elem) }

// MergeAll builds a sketch with the given parameters holding the merge
// of every input. Inputs must all be compatible with params and are
// never modified. The fold runs on the canonical form: every input is
// frozen (concurrently — freezing is the bulk of the work and the inputs
// are independent), MergeViews walks the views to the budget cut, and
// the merged view is thawed into a fresh sketch — the same sketch the
// sequential Merge left fold builds (see MergeViews).
func MergeAll(params Params, sketches ...*Sketch) (*Sketch, error) {
	views := make([]*View, len(sketches)) // nil inputs stay nil, which MergeViews skips
	var wg sync.WaitGroup
	for i, sk := range sketches {
		if sk != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				views[i] = sk.Freeze()
			}()
		}
	}
	wg.Wait()
	merged, err := MergeViews(params, 0, views...)
	if err != nil {
		return nil, err
	}
	out, err := NewSketch(params)
	if err != nil {
		return nil, err
	}
	if err := out.MergeView(merged); err != nil {
		return nil, err
	}
	return out, nil
}
