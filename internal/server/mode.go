package server

// This file is the pluggable engine-mode plane. The engine, the snapshot
// framing, the HTTP query plane and the cluster blob validation dispatch
// through two interfaces:
//
//   - ShardState is the mutable state a shard goroutine owns: batched
//     ingest, restore merge, uniform accounting, and Freeze, which cuts
//     a FrozenState — the read-only half (accounting and serialization)
//     that crosses goroutines, rides Snapshots and is never modified.
//   - Mode is the engine-mode singleton: it names the mode, constructs
//     shard states, merges / decodes frozen states and materializes a
//     merged state into the queryable graph, which every query then
//     reads through the engine's one executor (executeQuery).
//
// Three modes implement the plane: "sketch" (the paper's H≤n sketch,
// the default), "weighted" (the per-weight-class bank, selected by
// Config.Weights) and "dynamic" (the insert/delete L0 sampler of
// dynamic.go, selected by Config.Engine). Every mode's merge is a
// function of the edge (or net op) multiset alone — independent of
// arrival order, shard count and merge path — which is what lets crash
// recovery and the cluster fold promise bit-identical state for all of
// them. DESIGN.md §11 tabulates each mode's approximation bound,
// recovery contract and query algos.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/weighted"
)

// ModeName identifies an engine mode (Config.Engine, the HTTP "engine"
// field, and the X-Cov-Engine cluster header).
type ModeName string

const (
	// ModeSketch is the default: one H≤n sketch per shard, exactly the
	// paper's Algorithm 3 summary (internal/core).
	ModeSketch ModeName = "sketch"
	// ModeWeighted serves weighted coverage: one sketch per geometric
	// weight class (internal/weighted). Selected by Config.Weights.
	ModeWeighted ModeName = "weighted"
	// ModeDynamic serves insert/delete (turnstile) streams with the
	// leveled L0 edge sampler (internal/l0), after Chakrabarti–McGregor–
	// Wirth. The only mode whose shard states apply deletes.
	ModeDynamic ModeName = "dynamic"
)

// ErrDeletesUnsupported is returned (wrapped, with the engine name)
// when a delete op reaches an append-only engine mode. The paper's H≤n
// sketch — and the weighted bank built on the same shape — subsample
// and *discard* stream suffix information; once an edge has been
// dropped by the eviction bar there is nothing to subtract a delete
// from, so these modes reject deletes outright rather than silently
// corrupt their estimates. Only the dynamic mode's linear sampler
// supports retraction.
var ErrDeletesUnsupported = errors.New("deletes unsupported")

// ShardState is the mutable state a single ingest shard owns; only the
// owning shard goroutine (or New, before the goroutines start) calls
// its methods. The three engine modes (H≤n sketch, weighted class bank,
// L0 sampler) implement it.
type ShardState interface {
	// AddEdges absorbs one routed batch of records: inserts, and on a
	// deleteApplier also deletes (a record whose set word carries
	// bipartite.OpDeleteBit).
	AddEdges(recs []bipartite.Edge)
	// MergeFrom folds a frozen state of the same mode and configuration
	// (a restored snapshot) into the receiver. The receiver's
	// consumed-edge counter is left untouched — replayed kept edges were
	// already counted upstream.
	MergeFrom(other FrozenState) error
	// Stats reports the state's accounting in the uniform core.Stats
	// shape (EdgesSeen/EdgesKept/ElementsKept/PStar/…).
	Stats() core.Stats
	// Freeze returns a read-only cut of the state that later ingest never
	// shows through. Taken inside the shard mailbox, it is a consistent
	// cut of the shard's stream, and it is handed to exactly one
	// Mode.MergeStates call. published is the merged state the engine
	// last published (nil before the first refresh): a mode whose merged
	// cut only ever moves down may first discard whatever that state
	// already excludes, since no later merge can take it back, and may
	// answer with only what changed since the cut that state folded. The
	// sketch mode does both; the weighted and dynamic modes ignore it
	// (dynamic must: deletes move its cut both ways).
	Freeze(published FrozenState) FrozenState
}

// deleteApplier marks a shard state whose AddEdges applies delete
// records (today only the dynamic mode's). Implementing it is what makes
// an engine accept deletes (Engine.SupportsDeletes): append-only modes
// reject them before any state mutates.
type deleteApplier interface{ appliesDeletes() }

// barPublisher is the narrow extra a shard state implements when it drops
// an insert by its element's priority against an eviction bar that only
// moves down (today only the sketch mode's). It publishes the hash half
// of that bar after every change, so the router can drop, before copying
// or enqueueing it, an insert whose priority is strictly above the
// published hash — one the state would drop too (DESIGN.md §6) — and it
// accounts those drops exactly as its AddEdges would have. A weighted
// bank has one bar per weight class and an element's class depends on
// the set, and a dynamic sampler has no bar at all, so neither publishes.
type barPublisher interface {
	// publishedBar is the atomic the state stores its bar's hash in
	// (MaxUint64 while nothing was evicted); any goroutine may read it.
	publishedBar() *atomic.Uint64
	// addDropped accounts n inserts the router dropped against the
	// published bar.
	addDropped(n int64)
}

// FrozenState is a state nobody mutates any more: what Freeze,
// Mode.MergeStates and Mode.ReadState return, what a Snapshot carries
// and what the cluster layer stores per peer. Its consumed-edge total is
// fixed when it is built. The sketch mode's merged and decoded states are
// the canonical *core.View and its shards hand out a sketchCut (that view,
// or after the first publish a delta of it); the weighted mode's states are
// all the *weighted.BankView, that same view once per weight class; the
// dynamic mode's shards hand out a dynamicCut (the cells copied once into
// a recycled array, dynamic.go) and its merged and decoded states are
// *dynamicState.
type FrozenState interface {
	// Stats reports the state's accounting (see ShardState.Stats).
	Stats() core.Stats
	// WriteTo serializes the state — exactly the bytes WriteSnapshot
	// persists and /v1/cluster/sketch serves.
	WriteTo(w io.Writer) (int64, error)
}

// materialized is a merged state rendered queryable: the bipartite
// graph greedy runs on and (weighted mode only) the per-element weights
// of the scaled union.
type materialized struct {
	graph   *bipartite.Graph
	weights []float64
}

// Mode is an engine mode: the factory, merge policy, wire codec and
// materializer behind one engine configuration. Engine, Snapshot, the
// snapshot-v2 container and the cluster exchange all dispatch through
// it; adding an engine mode means implementing Mode + ShardState and
// listing the name in EngineMode. Queries run in the engine, on the
// materialized graph (executeQuery).
type Mode interface {
	// Name is the mode's wire name.
	Name() ModeName
	// NewShardState returns an empty state for one ingest shard.
	NewShardState() (ShardState, error)
	// MergeStates folds frozen states into one merged state. Inputs that
	// a Snapshot, a peer table or a caller still holds — anything
	// MergeStates or ReadState returned — are only read; a cut the mode's
	// own ShardState.Freeze made belongs to this call, which may consume
	// it (the dynamic mode does). edges is the ingested-edge total the
	// result reports: a merge only replays kept edges, so the caller
	// supplies the true consumed count. What can fail in making the result
	// queryable (the dynamic mode's L0 peel) fails here, as a refresh error.
	MergeStates(states []FrozenState, edges int64) (FrozenState, error)
	// ReadState decodes WriteTo bytes, validating that the blob was
	// built with this mode's configuration.
	ReadState(r io.Reader) (FrozenState, error)
	// Materialize renders a merged state queryable, on a snapshot's first
	// query: a snapshot that is only served never builds a graph.
	Materialize(st FrozenState) (*materialized, error)
}

// EngineMode resolves the config to its engine mode: Config.Engine when
// set ("" defaults to "weighted" iff Weights is configured, else
// "sketch"), validated against the weight configuration — the weighted
// mode requires Weights, the other modes refuse it.
func (c Config) EngineMode() (Mode, error) {
	name := c.engineName()
	switch name {
	case ModeSketch, ModeDynamic:
		if c.Weights != nil {
			return nil, fmt.Errorf("server: engine %q does not take Weights (use the weighted engine)", name)
		}
	case ModeWeighted:
		if c.Weights == nil {
			return nil, fmt.Errorf("server: the weighted engine requires Weights")
		}
	default:
		return nil, fmt.Errorf("server: unknown engine %q (known: %q, %q, %q)",
			name, ModeSketch, ModeWeighted, ModeDynamic)
	}
	switch name {
	case ModeWeighted:
		return weightedMode{
			numSets: c.NumSets,
			k:       c.K,
			opt:     c.WeightedOptions(),
			fn:      c.Weights.Fn(),
		}, nil
	case ModeDynamic:
		return dynamicMode{sketch: c.Params(), params: c.DynamicParams(), free: new(sync.Pool)}, nil
	}
	return sketchMode{params: c.Params()}, nil
}

// engineName resolves the effective mode name without validating it.
func (c Config) engineName() ModeName {
	if c.Engine != "" {
		return c.Engine
	}
	if c.Weights != nil {
		return ModeWeighted
	}
	return ModeSketch
}

// ---- sketch mode (unweighted H≤n sketch, the default) ----

// sketchState is the shard-owned half. What crosses to the coordinator is
// a sketchCut; the merged state — what a Snapshot, a restore and a peer
// hold — is always a complete *core.View, which the refresh merges,
// materializes and serializes without ever rebuilding a sketch.
type sketchState struct {
	sk *core.Sketch
	// consumedBy is the last cut's receipt: MergeStates stores the merged
	// view there once it has folded that cut. It holds nil while no merge
	// has, and before the first cut.
	consumedBy *atomic.Pointer[core.View]
	// bar is the hash half of sk's eviction bar (barPublisher), stored
	// after every call that may lower it.
	bar atomic.Uint64
}

// sketchCut is a shard's answer to a freeze request. When base is nil the
// view is the shard's whole state. Otherwise it is a delta (core.Sketch.Cut):
// only the elements that gained an edge since the shard's previous cut,
// meaningful only merged together with base, the published view that
// already folded that previous cut. It goes from Freeze to the one
// MergeStates call of the same buildSnapshot and nowhere else.
type sketchCut struct {
	*core.View
	base       *core.View
	consumedBy *atomic.Pointer[core.View] // shared with the shard; see sketchState
}

func (s *sketchState) AddEdges(edges []bipartite.Edge) {
	s.sk.AddEdges(edges)
	s.publishBar()
}

func (s *sketchState) Stats() core.Stats            { return s.sk.Stats() }
func (s *sketchState) publishedBar() *atomic.Uint64 { return &s.bar }
func (s *sketchState) addDropped(n int64)           { s.sk.AddDropped(n) }

// publishBar stores the hash half of the sketch's bar, MaxUint64 while
// nothing was evicted: no priority is strictly above that.
func (s *sketchState) publishBar() {
	hash, _, ok := s.sk.Bar()
	if !ok {
		hash = math.MaxUint64
	}
	s.bar.Store(hash)
}

// Freeze first lowers the shard's bar to the published merged bar: on an
// append-only stream no later merge can keep an element at or above it,
// and the merged view is the same with or without the shed (DESIGN.md
// §11). N shards then hold, freeze and scan about one budget between
// them instead of one each.
//
// The cut is a delta exactly when published is the view that folded this
// shard's previous cut — read off that cut's receipt, not assumed from the
// order refreshes happen to run in. It is a full cut the first time, after
// a restore (a new engine has published nothing) and after any merge that
// took a cut and published nothing, since the shard forgot what was dirty
// when it cut.
func (s *sketchState) Freeze(published FrozenState) FrozenState {
	cut := &sketchCut{consumedBy: new(atomic.Pointer[core.View])}
	if v, ok := published.(*core.View); ok {
		if hash, elem, evicted := v.Bar(); evicted {
			s.sk.LowerBar(hash, elem)
			s.publishBar()
		}
		if s.consumedBy.Load() == v {
			cut.base = v
		}
	}
	cut.View = s.sk.Cut(cut.base != nil)
	s.consumedBy = cut.consumedBy
	return cut
}

func (s *sketchState) MergeFrom(other FrozenState) error {
	v, ok := other.(*core.View)
	if !ok {
		return fmt.Errorf("server: cannot merge %T state into a sketch engine", other)
	}
	err := s.sk.MergeView(v)
	s.publishBar()
	return err
}

type sketchMode struct{ params core.Params }

func (m sketchMode) Name() ModeName { return ModeSketch }

func (m sketchMode) NewShardState() (ShardState, error) {
	sk, err := core.NewSketch(m.params)
	if err != nil {
		return nil, err
	}
	st := &sketchState{sk: sk, consumedBy: new(atomic.Pointer[core.View])}
	st.publishBar()
	return st, nil
}

// MergeStates folds complete views (a published state, a decoded peer or
// restore state) and shard cuts with the one core.MergeViews. A delta cut
// brings the published view it was cut against along as one more input:
// base ∪ deltas is an ordinary k-way merge (DESIGN.md §11). On success
// every cut's receipt names the merged view, which is how a shard later
// recognizes the published state its next delta is valid against.
func (m sketchMode) MergeStates(states []FrozenState, edges int64) (FrozenState, error) {
	views := make([]*core.View, 0, len(states)+1)
	var (
		cuts []*sketchCut
		base *core.View
	)
	for _, st := range states {
		switch in := st.(type) {
		case *core.View:
			views = append(views, in)
		case *sketchCut:
			views = append(views, in.View)
			cuts = append(cuts, in)
			if in.base != nil && in.base != base {
				base = in.base
				views = append(views, base)
			}
		default:
			return nil, fmt.Errorf("server: cannot merge %T state into a sketch engine", st)
		}
	}
	merged, err := core.MergeViews(m.params, edges, views...)
	if err != nil {
		return nil, err
	}
	for _, c := range cuts {
		c.consumedBy.Store(merged)
	}
	return merged, nil
}

// FoldDelta folds a DeltaIM state — the body of a 226 answer, decoded by
// the mode's ReadState — into base, the state whose ETag that answer named
// as its Delta-Base, with the mode's ordinary MergeStates. The result is
// byte for byte the state a full pull would have decoded (Snapshot.Delta).
// Only sketch states travel as deltas; any other pair is refused.
func FoldDelta(mode Mode, base, delta FrozenState) (FrozenState, error) {
	b, okBase := base.(*core.View)
	d, okDelta := delta.(*core.View)
	if !okBase || !okDelta {
		return nil, fmt.Errorf("server: %s states do not fold deltas", mode.Name())
	}
	return mode.MergeStates([]FrozenState{b, d}, d.Stats().EdgesSeen)
}

// ReadState decodes a v1 sketch blob straight into the view its bytes
// spell out (core.ReadView: one validating pass for a canonical blob, a
// normalizing rebuild only for a legacy unordered one) and checks it
// against the mode's parameters.
func (m sketchMode) ReadState(r io.Reader) (FrozenState, error) {
	v, err := core.ReadView(r)
	if err != nil {
		return nil, err
	}
	if v.Params() != m.params {
		return nil, fmt.Errorf("sketch parameter mismatch (peer built with different options)")
	}
	return v, nil
}

func (m sketchMode) Materialize(st FrozenState) (*materialized, error) {
	v, ok := st.(*core.View)
	if !ok {
		return nil, fmt.Errorf("server: cannot materialize %T state on a sketch engine", st)
	}
	g, _, err := v.Graph()
	if err != nil {
		return nil, err
	}
	return &materialized{graph: g}, nil
}

// ---- weighted mode (per-weight-class bank, Config.Weights) ----

// bankState is the shard-owned half. What it freezes into, and what the
// merge, a restore and a peer hold, is the immutable *weighted.BankView:
// one canonical core.View per weight class, merged, materialized and
// serialized without ever rebuilding a sketch.
type bankState struct{ bank *weighted.Bank }

func (s bankState) AddEdges(edges []bipartite.Edge) { s.bank.AddEdges(edges) }
func (s bankState) Freeze(FrozenState) FrozenState  { return s.bank.Freeze() }
func (s bankState) Stats() core.Stats               { return s.bank.Stats() }

func (s bankState) MergeFrom(other FrozenState) error {
	v, ok := other.(*weighted.BankView)
	if !ok {
		return fmt.Errorf("server: cannot merge %T state into a weighted engine", other)
	}
	return s.bank.MergeView(v)
}

type weightedMode struct {
	numSets, k int
	opt        weighted.Options
	fn         func(uint32) float64
}

func (m weightedMode) Name() ModeName { return ModeWeighted }

func (m weightedMode) NewShardState() (ShardState, error) {
	bk, err := weighted.NewBank(m.numSets, m.k, m.opt, m.fn)
	if err != nil {
		return nil, err
	}
	return bankState{bk}, nil
}

func (m weightedMode) MergeStates(states []FrozenState, edges int64) (FrozenState, error) {
	views := make([]*weighted.BankView, len(states))
	for i, st := range states {
		v, ok := st.(*weighted.BankView)
		if !ok {
			return nil, fmt.Errorf("server: cannot merge %T state into a weighted engine", st)
		}
		views[i] = v
	}
	merged, err := weighted.MergeBankViews(m.numSets, m.k, m.opt, m.fn, edges, views...)
	if err != nil {
		return nil, err
	}
	return merged, nil
}

func (m weightedMode) ReadState(r io.Reader) (FrozenState, error) {
	v, err := weighted.ReadBank(r, m.numSets, m.k, m.opt, m.fn)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (m weightedMode) Materialize(st FrozenState) (*materialized, error) {
	v, ok := st.(*weighted.BankView)
	if !ok {
		return nil, fmt.Errorf("server: cannot materialize %T state on a weighted engine", st)
	}
	in, _, err := v.Assemble()
	if err != nil {
		return nil, err
	}
	return &materialized{graph: in.G, weights: in.W}, nil
}
