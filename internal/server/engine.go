// Package server hosts the long-running coverage-query service: a
// concurrent sharded ingest engine over a pluggable per-shard state
// (mode.go), plus an HTTP JSON API (httpapi.go) served by cmd/covserved.
//
// Architecture. N shard goroutines each own a private ShardState built
// by the engine's Mode with identical parameters. Records are routed by
// their element's sketch priority, so a shard owns every edge of its
// elements, over bounded channels; each shard applies its batches
// sequentially, so no state is ever touched by two goroutines.
// Queries never read shard states directly: a coordinator refresh —
// triggered periodically, on demand, or lazily by the first query — is
// freeze → merge → adopt. Every shard answers a state request (a
// message in the same mailbox as the batches, so it observes every
// batch sent before it) with a read-only cut of its state; the
// coordinator folds the cuts into one merged state (Mode.MergeStates)
// and publishes it as an immutable Snapshot behind an atomic pointer,
// which its first query materializes into the query graph (the dynamic
// mode's peel and cut run inside the refresh, as the end of its merge) —
// unless, on a sketch engine, the refresh was one delta on a snapshot
// whose graph exists and carried that graph forward at the cost of the
// delta (querygraph.go) — and one executor answers every mode's queries
// (executeQuery). For the default sketch mode no sketch is rebuilt on that
// path. The engine keeps one bit, the published snapshot folded every
// shard's last cut (cutsFolded), and while it is set the request carries
// that snapshot's view as the cuts' base: the shard drops what it holds at
// or above the base's bar (on an append-only stream the merged cut only
// moves down, so no later merge can keep it — DESIGN.md §11) and freezes
// only the elements that gained an edge since its last cut into the
// canonical flat core.View (elements in hash order with sorted set lists —
// Definition 2.1's prefix written down), a delta (§11 again). On an
// engine's first refresh and after a refresh that failed there is no base
// and every shard freezes all it holds. core.MergeViews walks the shard
// views, and beside deltas the base, in priority order up to the budget
// cut, which is exactly the sketch a single machine would have built over
// every edge ingested before the request (internal/core/merge.go,
// view.go); the merged view's own arrays are adopted as the element side of a first
// query's graph and walked once more to emit the snapshot bytes. Those bytes decode straight back
// into a view (core.ReadView), which is what a restore and a cluster
// peer's pull hold. The weighted mode does the same once per weight class
// (its frozen state is a weighted.BankView, a core.View per class); the dynamic
// mode copies each shard's cells once, into an array recycled from the
// previous refresh, and sums the cuts in place (dynamic.go). Queries run
// greedy algorithms against the current snapshot without stalling
// ingest.
//
// The query plane is engineered for read-heavy traffic (DESIGN.md §7):
// snapshots carry a precomputed bitset coverage index so greedy
// marginals are word-level popcounts, a Refresh on an idle engine
// (ingested-edge counter unchanged) reuses the published snapshot
// instead of re-merging, concurrent first-snapshot builds collapse into
// one merge behind refreshMu, and a snapshot runs its greedy once: every
// query is a prefix of that one run, which is extended only when a query
// asks for picks no earlier query needed.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/l0"
	"repro/internal/wal"
	"repro/internal/weighted"
)

// Config sizes the engine. NumSets, K and (implicitly) Eps mirror
// algorithms.Options: the shard sketches are built with the exact
// Algorithm 3 parameters, so a kcover query with k = K returns the same
// solution as the offline single-pass streamcover.MaxCoverage run with
// the same Options over the same edges.
//
// A Config's JSON is the one encoding of a namespace's configuration:
// the snapshot-v2 container's config frame, the WAL's config.json
// sidecar and the POST /v1/ns body. Zero fields are omitted and
// MergeEvery is integer nanoseconds, so a default-heavy config stays
// short; the Go-only fields (WAL, OnRefreshError, RestoreState) are
// never encoded, and a client cannot set them.
type Config struct {
	// NumSets is n, the number of sets edges may refer to. Required.
	NumSets int `json:"num_sets"`
	// K is the solution size the sketch is provisioned for. Required.
	// Queries may use any k; the approximation guarantee holds for k ≤ K.
	K int `json:"k"`
	// Eps is the accuracy parameter (default 0.5, as in streamcover).
	Eps float64 `json:"eps,omitempty"`
	// Seed drives hashing, making the service deterministic.
	Seed uint64 `json:"seed,omitempty"`
	// NumElems is m when known (tunes a log log m budget factor only).
	NumElems int `json:"num_elems,omitempty"`
	// EdgeBudget / SpaceFactor override the sketch budget (per shard
	// sketch), as in streamcover.Options.
	EdgeBudget  int     `json:"edge_budget,omitempty"`
	SpaceFactor float64 `json:"space_factor,omitempty"`

	// Shards is the number of ingest workers (default 4).
	Shards int `json:"shards,omitempty"`
	// QueueDepth is the per-shard mailbox capacity in messages (default
	// 64), each a state request or a routed sub-batch: 1 024 / Shards
	// records, a 1 024-record batch's share of a shard (fewer than twice
	// that on a sketch engine, whose router packs what its bar drop
	// leaves of several shares into one). Ingest blocks when a shard's
	// mailbox is full — backpressure, not loss.
	QueueDepth int `json:"queue_depth,omitempty"`
	// MergeEvery, when positive, refreshes the snapshot on a timer so
	// queries see recent edges without paying a merge themselves.
	MergeEvery time.Duration `json:"merge_every_ns,omitempty"`

	// Engine selects the engine mode by name: ModeSketch (the default),
	// ModeWeighted (also implied by Weights) or ModeDynamic, the
	// insert/delete L0-sampler engine. See EngineMode for the resolution
	// rules. New stores "" for a mode the rest of the config implies, so
	// an engine's Config names only a mode that cannot be re-derived.
	Engine ModeName `json:"engine,omitempty"`

	// Weights, when non-nil, switches the engine into weighted-coverage
	// mode: every shard owns a bank of per-weight-class sketches
	// (internal/weighted) instead of a single H≤n sketch, snapshots
	// publish the scaled union of the merged class bank, and kcover
	// queries run the weighted greedy on it. Outliers and full-greedy
	// queries are not defined for weighted instances and are rejected.
	Weights *WeightConfig `json:"weights,omitempty"`

	// WAL, when non-nil, makes the engine durable (DESIGN.md §12): every
	// accepted Ingest batch is appended to a write-ahead log in WAL.Dir
	// before it is enqueued to the shard mailboxes, and New replays any
	// log tail the restore state does not cover — through the same
	// routing path, so the recovered shard states are bit-identical to
	// the uncrashed engine's. Checkpoint (or CheckpointEngine /
	// CheckpointMulti) truncates the log behind a durable snapshot. Nil
	// (the default) keeps the engine purely in-memory with zero logging
	// overhead.
	WAL *WALConfig `json:"-"`

	// OnRefreshError, when non-nil, is invoked with the first error of
	// the periodic merge loop (Config.MergeEvery) — at most once per
	// engine, so a supervisor can log the failure without being flooded.
	// Every failed refresh, the loop's or a caller's, is also counted in
	// Stats.RefreshErrors.
	OnRefreshError func(error) `json:"-"`

	// RestoreState, when non-nil, seeds the engine with a decoded state
	// of the configured mode, produced by a service with the same Config
	// — the one restore slot. ReadRestore fills it from WriteSnapshot
	// bytes; a caller holding a sketch passes sk.Freeze(). A state of
	// another mode is refused.
	RestoreState FrozenState `json:"-"`
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 4
	}
	return c.Shards
}

func (c Config) queueDepth() int {
	if c.QueueDepth < 1 {
		return 64
	}
	return c.QueueDepth
}

// Params derives the Algorithm 3 sketch parameters from the config —
// exported so the cluster layer can fold remote sketches with exactly
// the parameters the local shards were built with.
func (c Config) Params() core.Params {
	return algorithms.KCoverParams(c.NumSets, c.K, algorithms.Options{
		Eps:         c.Eps,
		Seed:        c.Seed,
		NumElems:    c.NumElems,
		EdgeBudget:  c.EdgeBudget,
		SpaceFactor: c.SpaceFactor,
	})
}

// WeightedOptions derives the class-bank options from the config — the
// same mapping streamcover.MaxWeightedCoverage applies to its Options,
// so a weighted engine, a one-shot run and a cluster peer's decoded
// bank all build identical per-class sketches.
func (c Config) WeightedOptions() weighted.Options {
	return weighted.Options{
		Eps:         c.Eps,
		Seed:        c.Seed,
		NumElems:    c.NumElems,
		EdgeBudget:  c.EdgeBudget,
		SpaceFactor: c.SpaceFactor,
	}
}

// ErrClosed is returned by every engine operation after Close.
var ErrClosed = errors.New("server: engine closed")

// ErrNumSetsRange is returned (wrapped) by New for a Config.NumSets
// above 1<<31. The serialized op record (WAL op frames, wire op batches)
// spends the set word's top bit on the op kind (bipartite.OpDeleteBit),
// and the WAL reader treats that bit in a v1 edge frame as corruption —
// so a set id at or above 1<<31 would be acknowledged and then silently
// dropped, or read back as a delete, at recovery.
var ErrNumSetsRange = errors.New("server: NumSets out of range")

// subBatch is one shard's share of a routed batch: the mailbox payload
// and the pooled buffer in one. The shard returns it to the engine's pool
// after applying it, so steady-state ingest recycles buffers instead of
// allocating per submission. recs holds the routed records (deletes keep
// bipartite.OpDeleteBit in their set word); calls cuts them into the
// state calls the shard makes, one per Engine.subBatchCap records the
// router routed to it.
type subBatch struct {
	recs  []bipartite.Edge
	calls []stateCall
}

// stateCall is one AddEdges call of a sub-batch: its records up to end,
// and the records among the routed ones that the router dropped against
// the shard's published bar instead of copying, deletes of them
// droppedDeletes.
type stateCall struct {
	end                     int
	dropped, droppedDeletes int64
}

// subBatchBase is the batch whose per-shard share is one state call
// (Engine.subBatchCap).
const subBatchBase = 1024

// applyTo hands the sub-batch to a shard state one call at a time (e.g.
// the sketch's deferred-shrink core.Sketch.AddEdges). A record carries a
// delete only on an engine whose states are deleteAppliers: check refuses
// deletes everywhere else before anything is logged or routed. A call
// drops records only on an engine whose states are barPublishers.
func (b *subBatch) applyTo(st ShardState) {
	start := 0
	for _, c := range b.calls {
		if c.dropped > 0 {
			st.(barPublisher).addDropped(c.dropped, c.droppedDeletes)
		}
		if c.end > start {
			st.AddEdges(b.recs[start:c.end])
		}
		start = c.end
	}
}

// shardMsg is a mailbox entry: a routed sub-batch or a state request.
type shardMsg struct {
	batch *subBatch       // owned by the message; exactly one of batch/reply is set
	reply chan shardReply // non-nil: respond with the shard's state
	// freeze asks for a read-only cut of the state (a merge is coming);
	// stats-only requests leave it false and skip the O(budget) copy.
	// base is what ShardState.Freeze cuts against: the published merged
	// state while cutsFolded holds, else nil.
	freeze bool
	base   FrozenState
}

// shardReply is a shard's answer to a state request: a frozen cut of its
// state when one was asked for, and its accounting (after the cut, so it
// shows what the shard holds once Freeze has shed).
type shardReply struct {
	frozen FrozenState // nil unless freeze
	stats  core.Stats
}

type shard struct {
	mail chan shardMsg
	done chan struct{}
	pool *sync.Pool // shared with the engine; receives applied sub-batches
}

// run is a shard's ingest loop; st is the shard's private state (built
// by the engine's Mode) and is owned exclusively by this goroutine.
func (sh *shard) run(st ShardState) {
	defer close(sh.done)
	for msg := range sh.mail {
		if msg.reply != nil {
			var rep shardReply
			if msg.freeze {
				rep.frozen = st.Freeze(msg.base)
			}
			rep.stats = st.Stats()
			msg.reply <- rep
			continue
		}
		msg.batch.applyTo(st)
		sh.pool.Put(msg.batch)
	}
}

// Snapshot is an immutable merged view of the service state at a point
// in time. Queries execute against a snapshot; ingest continues
// concurrently and is reflected by later snapshots.
type Snapshot struct {
	// Seq increases with every coordinator merge; 0 means "never merged".
	Seq uint64
	// CreatedAt is the merge time.
	CreatedAt time.Time
	// IngestedEdges is the number of edges the merged state actually
	// reflects: the sum of edges the shards had applied when the
	// coordinator collected their frozen cuts, plus any restored edges. It
	// is captured from the same mailbox replies as the cuts themselves,
	// so it can never disagree with the merged state — every Ingest
	// call that returned before the merge was requested is included (the
	// mailbox ordering guarantee), and nothing the state missed is
	// counted.
	IngestedEdges int64

	instance uint64      // the publishing engine's instance (Engine.Instance); 0 for a cluster view
	mode     Mode        // the engine mode the state belongs to
	state    FrozenState // merged state (sketch view / bank / sampler)
	// delta, when non-nil, says state is the snapshot it was built on folded
	// with sketch deltas (see Delta).
	delta *snapshotDelta

	// eng is the engine that merged the snapshot, a refresh of its own or a
	// cluster view of its namespace: it counts the snapshot's graph work.
	// folded is the graph the merge carried forward from its base's chain
	// (querygraph.go), when it did. chain is the chain a sketch snapshot
	// holds until a snapshot built on it takes it (then chainTaken).
	eng    *Engine
	folded *bipartite.Graph
	chain  atomic.Pointer[graphChain]

	// The materialized graph queries run on, with its cover index, built
	// by the first query.
	matOnce sync.Once
	mat     *materialized
	matErr  error

	// The one greedy run over the graph, started by the first query and
	// shared by every later one, whichever route it arrives by: wrun (the
	// float-gain loop) when the graph carries weights, run otherwise.
	runOnce sync.Once
	run     *greedy.Run
	wrun    *weighted.Run
}

// snapshotDelta is what a sketch snapshot keeps to describe itself as a
// delta on the snapshot it was built on: the deltas its merge folded into
// that snapshot's view (on an engine, the shard Cut(true) views), and the
// predecessor's identity — its sequence number and edge total, never a
// pointer, so snapshots do not chain. The
// restriction of the snapshot's view to the cuts' elements is built once,
// on first request, and serialized with it; a node nobody pulls from never
// builds it.
type snapshotDelta struct {
	baseSeq   uint64
	baseEdges int64

	once sync.Once
	cuts []*core.View // dropped once view is built
	view *core.View
	blob []byte
}

// build restricts the snapshot's view to the cuts' elements (one walk,
// core.View.Restrict) and serializes it.
func (d *snapshotDelta) build(state FrozenState) (*core.View, []byte) {
	d.once.Do(func() {
		d.view = state.(*core.View).Restrict(d.cuts...)
		d.cuts = nil
		var buf bytes.Buffer
		d.view.WriteTo(&buf) // a bytes.Buffer write cannot fail
		d.blob = buf.Bytes()
	})
	return d.view, d.blob
}

// SnapshotID names a published snapshot: the instance of the engine that
// published it (drawn once per New, so a restarted engine or a re-created
// namespace never repeats one) and its sequence number in that engine.
type SnapshotID struct{ Instance, Seq uint64 }

// ID returns the snapshot's identity. A cluster view has instance 0 and a
// sequence number of its node's own.
func (s *Snapshot) ID() SnapshotID { return SnapshotID{s.instance, s.Seq} }

// Delta describes a sketch snapshot as one delta on the snapshot it was
// built on — its engine's previous one; for a cluster view, the node's
// previous view: base names that snapshot, and MergeStates over its state
// and delta, reporting this snapshot's edge total, is this snapshot's state
// byte for byte (DESIGN.md §11). delta holds this snapshot's view
// restricted to the elements its deltas held; it is built on the first
// call and shared. ok is false when the snapshot is not one delta
// away from its predecessor: any shard cut full (an engine's first refresh,
// a restore, the build after a failed merge), or a weighted or dynamic
// state.
func (s *Snapshot) Delta() (base SnapshotID, delta FrozenState, ok bool) {
	if s.delta == nil {
		return SnapshotID{}, nil, false
	}
	v, _ := s.delta.build(s.state)
	return SnapshotID{s.instance, s.delta.baseSeq}, v, true
}

// materialized renders the snapshot's state queryable on first use: the
// graph its merge folded, else the mode's full build, from which a sketch
// snapshot starts a graph chain.
func (s *Snapshot) materialized() (*materialized, error) {
	s.matOnce.Do(func() {
		start := time.Now()
		if s.folded != nil {
			s.mat = &materialized{graph: s.folded}
		} else if s.mat, s.matErr = s.mode.Materialize(s.state); s.matErr != nil {
			return
		} else if s.mode.Name() == ModeSketch {
			s.startChain(s.mat.graph)
		}
		// The bitset coverage index is built with the graph (when
		// profitable for it) so no query pays it: snapshots are immutable
		// and the index is shared by every greedy run against them.
		s.mat.graph.BuildCoverIndex()
		if s.folded == nil {
			s.eng.graphBuilds.Add(1)
		}
		s.eng.materializeNanos.Add(int64(time.Since(start)))
	})
	return s.mat, s.matErr
}

// Mode returns the engine mode the snapshot was merged under.
func (s *Snapshot) Mode() Mode { return s.mode }

// ModeName returns the snapshot's engine-mode name.
func (s *Snapshot) ModeName() ModeName { return s.mode.Name() }

// State returns the snapshot's merged state.
func (s *Snapshot) State() FrozenState { return s.state }

// Bank returns the merged weight-class bank's view (nil unless the
// snapshot came from the weighted mode).
func (s *Snapshot) Bank() *weighted.BankView {
	v, _ := s.state.(*weighted.BankView)
	return v
}

// Weighted reports whether the snapshot came from a weighted engine.
func (s *Snapshot) Weighted() bool { return s.mode.Name() == ModeWeighted }

// elements is the sampled-element count of the merged state.
func (s *Snapshot) elements() int { return s.state.Stats().ElementsKept }

// keptEdges is the resident edge count of the merged state.
func (s *Snapshot) keptEdges() int { return s.state.Stats().EdgesKept }

// pStar is the sampling probability of the merged state; a weighted
// snapshot reports its smallest class probability (each class is an
// independent subsample, so there is no single p*).
func (s *Snapshot) pStar() float64 { return s.state.Stats().PStar }

// Graph returns the snapshot state materialized as the bipartite graph
// its queries run on, with the bitset coverage index already built when
// profitable; the first call (or query) builds it unless its merge
// already carried it forward. Set ids are preserved. On a sketch snapshot,
// an engine's or a cluster view, the elements are slots of its graph
// chain: stable numbers in no particular relation to the view's priority
// order, some of them absent (bipartite.Graph.Absent) — elements that left
// the sketch or whose list a later delta replaced, still named in the set
// lists, covered from the start by every evaluator and never counted. Elsewhere
// they are the state's elements numbered in its order, none absent.
// Read-only: the graph is shared with every query running against this
// snapshot.
func (s *Snapshot) Graph() (*bipartite.Graph, error) {
	mat, err := s.materialized()
	if err != nil {
		return nil, err
	}
	return mat.graph, nil
}

// WriteState serializes the snapshot's merged state in its mode's wire
// format (v1 sketch, weighted.BankMagic bank, or "L0DYNS3" sampler
// state). These are the exact bytes Engine.WriteSnapshot persists and
// /v1/cluster/sketch serves — one wire format for disk and peers. Safe
// on a published snapshot: a frozen state's WriteTo only reads.
func (s *Snapshot) WriteState(w io.Writer) error {
	_, err := s.state.WriteTo(w)
	return err
}

// MergeSnapshot is the one way a snapshot is made: it merges states of the
// engine's mode, beside base's state when base is non-nil (the states are
// then deltas on it, DESIGN.md §11), into a queryable Snapshot of
// IngestedEdges edges — the total the inputs reflect together, which a
// merge of kept edges cannot count. A refresh passes its shard cuts and,
// when they are delta cuts, the published snapshot; a cluster view the local
// and peer states, or its previous view and the inputs' deltas. A snapshot
// built on a base takes the base's graph chain, when it has one, folded
// over the deltas; any other's first query builds the graph, so a snapshot
// that only serves its bytes never pays for it. Published and decoded states are only read;
// shard cuts fresh from Freeze are the merge's to consume.
func (e *Engine) MergeSnapshot(seq uint64, edges int64, base *Snapshot, states []FrozenState) (*Snapshot, error) {
	inputs := states
	if base != nil {
		inputs = append(states, base.state)
	}
	merged, err := e.mode.MergeStates(inputs, edges)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Seq: seq, CreatedAt: time.Now(), IngestedEdges: edges, mode: e.mode, state: merged, eng: e}
	if base != nil {
		deltas := make([]*core.View, 0, len(states))
		for _, st := range states {
			if v, ok := st.(*core.View); ok {
				deltas = append(deltas, v)
			}
		}
		snap.delta = &snapshotDelta{baseSeq: base.Seq, baseEdges: base.IngestedEdges, cuts: deltas}
		snap.takeChain(base, deltas)
	}
	return snap, nil
}

// Engine is the concurrent sharded ingest engine.
type Engine struct {
	cfg    Config
	params core.Params
	mode   Mode
	shards []*shard
	// instance is drawn once per New and tags the state ETag (ServeState):
	// two engines that reach the same ingested-edge total with different
	// edges must not validate each other's cached state.
	instance uint64
	// wal is the engine's write-ahead log (nil unless Config.WAL): every
	// accepted batch is appended before it enters a shard mailbox.
	wal *wal.Log
	// weightSig is cfg.Weights.Signature() (0 when unweighted), computed
	// once for the handshakes that compare it (WeightSig).
	weightSig uint64

	// restored is the ingested-edge total carried in by the Config
	// restore fields; shard stream counters never see those edges (they
	// arrive via the merge path), so snapshot accounting adds it back.
	restored int64

	ingestMu sync.RWMutex // guards shards' mailboxes against Close
	closed   bool

	refreshMu sync.Mutex // serializes coordinator merges
	snap      atomic.Pointer[Snapshot]
	seq       atomic.Uint64
	// cutsFolded says the published snapshot folded every shard's last cut,
	// so the next freeze may cut deltas against it. Guarded by refreshMu:
	// a round cuts every shard under it and then publishes or fails, so
	// this one bit is the whole of what shards and merge need to agree on.
	// Only a sketch engine ever sets it; a new engine (a restore, a WAL
	// replay) starts without it.
	cutsFolded bool

	// graphFolds counts the graphs a merge carried forward from its base's
	// chain; graphBuilds the full transposes, compactions of a chain
	// included; materializeNanos sums the time both took, cover index
	// included. Cluster views of the engine's namespace count here too.
	graphFolds       atomic.Int64
	graphBuilds      atomic.Int64
	materializeNanos atomic.Int64

	ingested atomic.Int64
	batches  atomic.Int64
	queries  atomic.Int64
	// deletes counts accepted delete records (always 0 on append-only
	// modes, which reject them before any counter moves).
	deletes atomic.Int64
	// deletable: the mode's shard states implement deleteApplier.
	deletable bool
	// subBatchCap is a subBatchBase-record batch's share of a shard: the
	// records routed to a shard per state call, and (fewer than twice)
	// the records one mailbox message holds. QueueDepth counts messages,
	// so a mailbox — and what a freeze request waits behind — holds at
	// most about what it held when every caller sent batches of
	// subBatchBase records, however large the batches callers submit.
	subBatchCap int
	// priority is params' element hash, the one hash route evaluates per
	// record: it picks the record's shard and, when the mode's states are
	// barPublishers, meets the shard's published bar in bars (nil
	// otherwise); barDrops counts the records route dropped against them.
	priority core.Priority
	bars     []*atomic.Uint64
	barDrops atomic.Int64
	// ingestStalls counts shard-mailbox sends that found the mailbox
	// full and had to wait — the engine's backpressure events. The wire
	// ingest plane surfaces them as its stall metric.
	ingestStalls atomic.Int64

	// cacheHits counts the queries whose snapshot's run already held every
	// pick they needed (Stats.QueryCacheHits).
	cacheHits atomic.Int64
	// refreshes counts coordinator merges that actually ran and
	// refreshNanos sums the time they took (gather → merge → materialize →
	// publish); refreshSkips counts Refresh calls satisfied by the idle
	// short-circuit, which add no time.
	refreshes    atomic.Int64
	refreshNanos atomic.Int64
	refreshSkips atomic.Int64
	// shardKept and shardBytes are the edge total the shard states held and
	// their resident bytes (core.Stats.Bytes), summed over the replies of
	// the last freeze (0 before the first).
	shardKept  atomic.Int64
	shardBytes atomic.Int64
	// fullCuts and deltaCuts count the cuts sketch shards answered freeze
	// requests with, by kind (a round's cuts are all of the kind cutsFolded
	// picked), and deltaEdges sums the edges the delta cuts carried; beside
	// shardKept that is the share of shard state a refresh re-cuts. All
	// three stay 0 on the other modes.
	fullCuts   atomic.Int64
	deltaCuts  atomic.Int64
	deltaEdges atomic.Int64
	// refreshErrors counts refreshes that failed, whoever asked for them;
	// refreshErrOnce gates the Config.OnRefreshError callback.
	refreshErrors  atomic.Int64
	refreshErrOnce sync.Once

	// pool recycles the per-shard sub-batch buffers submit routes records
	// into; shards return applied buffers here.
	pool sync.Pool

	stopTicker chan struct{}
	tickerDone chan struct{}
}

// New validates cfg and starts the shard goroutines (and the periodic
// merge ticker when configured). Call Close to stop them.
func New(cfg Config) (*Engine, error) {
	if cfg.NumSets <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("server: Config needs positive NumSets and K")
	}
	if int64(cfg.NumSets) > int64(bipartite.OpDeleteBit) {
		return nil, fmt.Errorf("%w: %d sets (set ids must stay below 1<<31)", ErrNumSetsRange, cfg.NumSets)
	}
	if err := cfg.Weights.Validate(); err != nil {
		return nil, err
	}
	// Private copy: the engine outlives the caller's table.
	cfg.Weights = cfg.Weights.clone()
	mode, err := cfg.EngineMode()
	if err != nil {
		return nil, err
	}
	if name := mode.Name(); name == ModeSketch || name == ModeWeighted {
		cfg.Engine = "" // implied by whether Weights is set
	}
	return newEngine(cfg, mode)
}

// newEngine is New after validation, with the resolved mode as a
// parameter so a test can wrap it.
func newEngine(cfg Config, mode Mode) (*Engine, error) {
	// Consumed by the merge below; the pointer dies with this scope, so
	// the engine does not pin a full copy for life.
	restore := cfg.RestoreState
	cfg.RestoreState = nil

	states := make([]ShardState, cfg.shards())
	for i := range states {
		st, err := mode.NewShardState()
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	restoredEdges := int64(0)
	if restore != nil {
		if err := states[0].MergeFrom(restore); err != nil {
			return nil, fmt.Errorf("server: restoring %s snapshot: %w", mode.Name(), err)
		}
		restoredEdges = restore.Stats().EdgesSeen
	}
	params := cfg.Params()
	e := &Engine{
		cfg:       cfg,
		params:    params,
		mode:      mode,
		weightSig: cfg.Weights.Signature(),
		// A sketch mode's states are built from cfg.Params() too, so this
		// is the priority their published bars are hashes of.
		priority:    params.Priority(),
		shards:      make([]*shard, cfg.shards()),
		restored:    restoredEdges,
		instance:    rand.Uint64(),
		subBatchCap: max(1, subBatchBase/cfg.shards()),
	}
	_, e.deletable = states[0].(deleteApplier)
	if _, ok := states[0].(barPublisher); ok {
		e.bars = make([]*atomic.Uint64, len(states))
		for i, st := range states {
			e.bars[i] = st.(barPublisher).publishedBar()
		}
	}
	// A restored dynamic state's floor holds before the WAL tail replays.
	e.publishFloor(restore)
	// Recovery: replay the WAL tail the restore state does not cover into
	// the still-private shard states (no goroutines yet, so the replay is
	// exactly as deterministic as the original sequential Ingest calls),
	// then log new batches from the recovered offset.
	total := restoredEdges
	if cfg.WAL != nil {
		if err := e.openWAL(states, restoredEdges); err != nil {
			return nil, err
		}
		total = e.wal.NextOffset()
	}
	for i := range e.shards {
		sh := &shard{
			mail: make(chan shardMsg, cfg.queueDepth()),
			done: make(chan struct{}),
			pool: &e.pool,
		}
		e.shards[i] = sh
		go sh.run(states[i])
	}
	if total > 0 {
		e.ingested.Store(total)
	}
	if cfg.MergeEvery > 0 {
		e.stopTicker = make(chan struct{})
		e.tickerDone = make(chan struct{})
		go e.mergeLoop(cfg.MergeEvery)
	}
	return e, nil
}

// EngineMode returns the engine's resolved mode.
func (e *Engine) EngineMode() Mode { return e.mode }

// ModeName returns the engine's mode name ("sketch", "weighted", "dynamic").
func (e *Engine) ModeName() ModeName { return e.mode.Name() }

// SupportsDeletes reports whether the engine accepts delete ops — its
// mode's shard states are deleteAppliers (today only "dynamic"). The
// gate the ingest planes check before accepting a client that may delete.
func (e *Engine) SupportsDeletes() bool { return e.deletable }

// Weighted reports whether the engine runs the weighted query plane —
// a single comparison, unlike Config(), which deep-copies the weight
// table and is therefore not for hot read paths.
func (e *Engine) Weighted() bool { return e.mode.Name() == ModeWeighted }

// Instance identifies the engine: drawn once per New, so a restarted engine
// or a re-created namespace never repeats it (SnapshotID.Instance).
func (e *Engine) Instance() uint64 { return e.instance }

// WeightSig fingerprints the engine's weight mapping (0 when
// unweighted) — see WeightConfig.Signature. Cluster peers and wire
// clients compare it before merging remote state or streaming edges.
func (e *Engine) WeightSig() uint64 { return e.weightSig }

func (e *Engine) mergeLoop(every time.Duration) {
	defer close(e.tickerDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := e.Refresh(); err != nil {
				// A failed background merge is invisible to any caller: it
				// was counted where it failed (Stats.RefreshErrors); surface
				// the first one to the supervisor instead of dropping it on
				// the floor.
				if cb := e.cfg.OnRefreshError; cb != nil {
					e.refreshErrOnce.Do(func() { cb(err) })
				}
			}
		case <-e.stopTicker:
			return
		}
	}
}

// getSubBatch returns an empty pooled sub-batch buffer.
func (e *Engine) getSubBatch() *subBatch {
	if v := e.pool.Get(); v != nil {
		b := v.(*subBatch)
		b.recs, b.calls = b.recs[:0], b.calls[:0]
		return b
	}
	return &subBatch{recs: make([]bipartite.Edge, 0, 256)}
}

// Ingest routes one batch of edges to the shard states and returns the
// number of edges accepted. It blocks only when shard mailboxes are full
// (backpressure). Safe for concurrent use. The caller's slice is copied
// into pooled per-shard buffers before Ingest returns, so callers may
// reuse it immediately. Every set id must be below NumSets: a set word
// carrying bipartite.OpDeleteBit is out of range here, never a delete.
func (e *Engine) Ingest(edges []bipartite.Edge) (int, error) {
	return e.submit(edges, ^uint32(0), nil)
}

// IngestRecords is Ingest for records (bipartite.Record): a record whose
// set word carries bipartite.OpDeleteBit deletes the edge named by the
// rest of its set word. A batch containing deletes requires a mode whose
// shard states apply them (SupportsDeletes, today only "dynamic"); on any
// other engine the whole batch is rejected with ErrDeletesUnsupported
// before anything is logged, counted or routed. A delete-free batch takes
// exactly the Ingest path — same WAL frame bytes, same mailbox shape.
// All-or-nothing like Ingest; offsets/watermarks count records, deletes
// included.
func (e *Engine) IngestRecords(recs []bipartite.Edge) (int, error) {
	return e.submit(recs, ^bipartite.OpDeleteBit, nil)
}

// IngestOps is IngestRecords of the ops' records, packed into a pooled
// buffer: an insert-only batch costs what Ingest of its edges costs.
func (e *Engine) IngestOps(ops []bipartite.Op) (int, error) {
	sb := e.getSubBatch()
	defer e.pool.Put(sb)
	for _, op := range ops {
		switch {
		case op.Kind > bipartite.OpDelete:
			return 0, fmt.Errorf("server: unknown op kind %d", op.Kind)
		case op.Edge.Set&bipartite.OpDeleteBit != 0:
			return 0, e.setRangeError(op.Edge.Set)
		}
		sb.recs = append(sb.recs, bipartite.Record(op))
	}
	return e.IngestRecords(sb.recs)
}

// check validates a batch before anything is logged, counted or routed,
// and returns the number of deletes it carries. A record's set id is its
// set word under setMask: Ingest's mask keeps the delete bit, so a set
// word carrying it is out of range, and IngestRecords' mask clears it.
func (e *Engine) check(recs []bipartite.Edge, setMask uint32) (deletes int64, err error) {
	for _, r := range recs {
		if set := r.Set & setMask; int(set) >= e.cfg.NumSets {
			return 0, e.setRangeError(set)
		}
		deletes += int64(r.Set >> 31)
	}
	if deletes > 0 && !e.deletable {
		return 0, fmt.Errorf("server: engine %q: %w", e.ModeName(), ErrDeletesUnsupported)
	}
	return deletes, nil
}

func (e *Engine) setRangeError(set uint32) error {
	return fmt.Errorf("server: edge set id %d out of range [0,%d)", set, e.cfg.NumSets)
}

// route copies recs into pooled per-shard sub-batches, in batch order,
// and hands them to emit; ownership passes with each. Every
// e.subBatchCap records routed to a shard end one state call, and a
// sub-batch goes to emit at the end of the first call that leaves it
// holding e.subBatchCap records or more, the rest at the end of recs.
//
// On an engine whose shard states publish their bars, a record whose
// element priority is strictly above its shard's published bar hash is
// counted in its call instead of copied: the shard would drop it too, or
// (dynamic) it touches no level the shard keeps. It still counts toward
// its call's e.subBatchCap records, so every shard makes the calls it
// would make with the drop off (DESIGN.md §6), and a sub-batch packs what
// the drop leaves of several calls — fewer than twice e.subBatchCap
// records. route returns the number of records it dropped.
func (e *Engine) route(recs []bipartite.Edge, emit func(w int, sb *subBatch)) int64 {
	// Per shard: the open sub-batch, the records routed into its open call
	// and those dropped among them, deletes counted apart; on the stack for
	// up to 16 shards.
	type shardCut struct {
		sb                      *subBatch
		routed                  int
		dropped, droppedDeletes int64
	}
	var (
		cutBuf  [16]shardCut
		cuts    []shardCut
		dropped int64
	)
	if n := len(e.shards); n <= len(cutBuf) {
		cuts = cutBuf[:n]
	} else {
		cuts = make([]shardCut, n)
	}
	endCall := func(c *shardCut) {
		c.sb.calls = append(c.sb.calls, stateCall{end: len(c.sb.recs), dropped: c.dropped, droppedDeletes: c.droppedDeletes})
		dropped += c.dropped
		c.routed, c.dropped, c.droppedDeletes = 0, 0, 0
	}
	for _, r := range recs {
		// One hash per record. Its low 32 bits pick the shard (DESIGN.md
		// §6), so every edge of an element, delete or insert, lands on
		// the shard that holds the element. A sketch and a dynamic engine
		// have bars; only the dynamic one sees deletes.
		h := e.priority.Of(r.Elem)
		w := int(uint64(uint32(h)) * uint64(len(e.shards)) >> 32)
		c := &cuts[w]
		if c.sb == nil {
			c.sb = e.getSubBatch()
		}
		if e.bars != nil && h > e.bars[w].Load() {
			c.dropped++
			c.droppedDeletes += int64(r.Set >> 31)
		} else {
			c.sb.recs = append(c.sb.recs, r)
		}
		if c.routed++; c.routed == e.subBatchCap {
			endCall(c)
			if len(c.sb.recs) >= e.subBatchCap {
				emit(w, c.sb)
				c.sb = nil
			}
		}
	}
	for w := range cuts {
		c := &cuts[w]
		if c.routed > 0 {
			endCall(c)
		}
		if c.sb != nil {
			emit(w, c.sb)
		}
	}
	return dropped
}

// submit is the ingest pipeline, written once for every entry point and
// for recovery: validate → log → count → route and enqueue. It returns
// the number of records accepted; a batch is accepted or rejected whole.
// setMask is check's: which bits of a set word name the set.
//
// replay is nil on the live path. During recovery (openWAL, inside New)
// it holds the still-private shard states: the batch came out of the
// log, so it is not logged again, not counted in the accepted records
// (New seeds that counter from the log's offset) and, with no shard
// goroutine running yet, its sub-batches are applied in place — cut by the
// same route as the original call's, so every shard makes the state calls
// it made then, less what its bar drops (which may stand elsewhere than it
// did live, and changes no state or count either way: DESIGN.md §6).
func (e *Engine) submit(recs []bipartite.Edge, setMask uint32, replay []ShardState) (int, error) {
	n := len(recs)
	if n == 0 {
		return 0, nil
	}
	deletes, err := e.check(recs, setMask)
	if err != nil {
		return 0, err
	}
	if replay != nil {
		e.barDrops.Add(e.route(recs, func(w int, sb *subBatch) {
			sb.applyTo(replay[w])
			e.pool.Put(sb)
		}))
		return n, nil
	}
	e.ingestMu.RLock()
	defer e.ingestMu.RUnlock()
	if e.closed {
		return 0, ErrClosed
	}
	// Durability first: the batch must be in the log before any shard can
	// observe it, so a crash never leaves applied-but-unlogged records. The
	// fsync policy decides whether "in the log" means stable storage
	// (always) or the kernel (interval/off) by the time submit returns. A
	// log failure rejects the batch: no shard has seen it, so the engine
	// stays consistent with the log's acknowledged prefix. A batch is
	// logged as a v1 edge frame unless it carries a delete (wal.Log.Append),
	// and an op frame is one old-format readers reject rather than misread.
	if e.wal != nil {
		if _, err := e.wal.Append(recs); err != nil {
			return 0, err
		}
	}
	// Count before enqueueing: the accepted-record counter must never lag
	// a batch that a concurrent Refresh can already observe through the
	// shard mailboxes, so the idle short-circuit's "counter unchanged ⇒
	// snapshot complete" reasoning stays sound.
	e.ingested.Add(int64(n))
	if deletes > 0 {
		e.deletes.Add(deletes)
	}
	e.batches.Add(1)
	e.barDrops.Add(e.route(recs, func(w int, sb *subBatch) {
		// Fast path: the mailbox has room. A full mailbox is counted as a
		// backpressure stall before the blocking send — the signal the
		// wire plane and /metrics surface as ingest_stalls.
		select {
		case e.shards[w].mail <- shardMsg{batch: sb}:
		default:
			e.ingestStalls.Add(1)
			e.shards[w].mail <- shardMsg{batch: sb}
		}
	}))
	return n, nil
}

// requestStates places one state request (asking for a frozen cut when
// freeze) in every shard mailbox and returns the reply channels. A
// request rides the same mailbox as the batches, so each reply reflects
// every batch enqueued to that shard before it. A freeze request carries
// the published merged state as the cuts' base while cutsFolded holds,
// and on a dynamic engine whenever one is published (the shards read its
// floor). The caller holds ingestMu (shared or exclusive) and has checked
// e.closed; a freezing caller also holds refreshMu, so neither the bit nor
// the published snapshot can change before its buildSnapshot reads them.
func (e *Engine) requestStates(freeze bool) []chan shardReply {
	msg := shardMsg{freeze: freeze}
	if snap := e.snap.Load(); freeze && snap != nil && (e.cutsFolded || e.mode.Name() == ModeDynamic) {
		msg.base = snap.state
	}
	replies := make([]chan shardReply, len(e.shards))
	for i, sh := range e.shards {
		msg.reply = make(chan shardReply, 1)
		replies[i] = msg.reply
		sh.mail <- msg
	}
	return replies
}

// placeStateRequests is requestStates for callers that may cut through
// a concurrent Ingest: it takes the ingest lock shared.
func (e *Engine) placeStateRequests(freeze bool) ([]chan shardReply, error) {
	e.ingestMu.RLock()
	defer e.ingestMu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	return e.requestStates(freeze), nil
}

// Refresh publishes a snapshot reflecting every edge whose Ingest call
// returned before Refresh was called. When the ingested-edge counter
// has not moved since the current snapshot was published, that snapshot
// already reflects everything and is returned as-is — an idle Refresh
// costs two atomic loads instead of a full freeze-and-merge.
func (e *Engine) Refresh() (*Snapshot, error) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	return e.refreshLocked()
}

// refreshLocked is Refresh's body; the caller holds refreshMu.
func (e *Engine) refreshLocked() (*Snapshot, error) {
	ingested := e.ingested.Load()
	if snap := e.snap.Load(); snap != nil && snap.IngestedEdges == ingested {
		// Idle short-circuit. Ingest bumps the accepted-edge counter
		// before it enqueues, so "counter unchanged since the snapshot's
		// applied total" means no batch has entered a mailbox since that
		// merge — the published snapshot still satisfies the Refresh
		// contract.
		e.refreshSkips.Add(1)
		return snap, nil
	}
	// The counter read above is only the idle check — a batch accepted
	// between it and the requests is legitimately included.
	replies, err := e.placeStateRequests(true)
	if err != nil {
		e.refreshErrors.Add(1)
		return nil, err
	}
	return e.buildSnapshot(replies)
}

// buildSnapshot is the snapshot-building tail shared by Refresh and
// Checkpoint: gather the frozen cuts the placed requests produce, fold
// them, publish. The caller holds refreshMu.
func (e *Engine) buildSnapshot(replies []chan shardReply) (*Snapshot, error) {
	start := time.Now()
	// The ingested-edge total comes from the same replies as the cuts:
	// the count and the merged state describe the exact same cut of the
	// mailboxes, so the snapshot's accounting can neither lag a batch the
	// merge contains nor claim one it missed. Restored edges never passed
	// a shard's stream counter and ride e.restored.
	applied := e.restored
	states := make([]FrozenState, len(replies), len(replies)+1)
	var shardKept, shardBytes int64
	for i, ch := range replies {
		rep := <-ch
		applied += rep.stats.EdgesSeen
		shardKept += int64(rep.stats.EdgesKept)
		shardBytes += rep.stats.Bytes
		states[i] = rep.frozen
	}
	e.shardKept.Store(shardKept)
	e.shardBytes.Store(shardBytes)
	// The cuts are deltas on the published snapshot exactly when the
	// requests carried its view as their base.
	var base *Snapshot
	if e.cutsFolded {
		base = e.snap.Load()
		for _, st := range states {
			e.deltaEdges.Add(int64(st.Stats().EdgesKept))
		}
		e.deltaCuts.Add(int64(len(states)))
	} else if e.mode.Name() == ModeSketch {
		e.fullCuts.Add(int64(len(states)))
	}
	e.cutsFolded = false
	snap, err := e.MergeSnapshot(e.seq.Add(1), applied, base, states)
	if err != nil {
		// Counted here, whoever asked: the ticker, a ?refresh=1 query, a
		// snapshot GET, a peer's pull or a checkpoint. The shards have cut
		// and nothing was published, so the next round cuts in full, with
		// no base and no shed.
		e.refreshErrors.Add(1)
		return nil, err
	}
	snap.instance = e.instance
	e.snap.Store(snap)
	e.publishFloor(snap.state)
	e.cutsFolded = e.mode.Name() == ModeSketch
	e.refreshes.Add(1)
	e.refreshNanos.Add(int64(time.Since(start)))
	return snap, nil
}

// publishFloor stores the bar of a dynamic state's floor (l0.FloorBar) in
// every shard's published bar, when it lies below it: the router then
// drops the ops of every element that touches no level the floor keeps.
// Called with the restored state before a WAL replay, and with each
// published snapshot's state as soon as it is published. The shards
// learn the floor at their next freeze and release the levels below it;
// until then those levels only miss ops that no later merge reads.
func (e *Engine) publishFloor(st FrozenState) {
	d, ok := st.(*dynamicState)
	if !ok || e.bars == nil {
		return
	}
	bar := l0.FloorBar(d.sam.Floor())
	for _, b := range e.bars {
		if bar < b.Load() {
			b.Store(bar)
		}
	}
}

// Snapshot returns the current snapshot, building the first one on
// demand. Concurrent first calls collapse into a single coordinator
// merge behind refreshMu (the losers wait and reuse the winner's
// snapshot) instead of each triggering an independent Refresh.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if s := e.snap.Load(); s != nil {
		return s, nil
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	if s := e.snap.Load(); s != nil { // built while we waited for the lock
		return s, nil
	}
	return e.refreshLocked()
}

// RefreshErrors reports the number of refreshes that failed, whoever
// asked: the merge ticker, a refreshing query, a snapshot read, a peer's
// pull or a checkpoint. A single atomic load — unlike Stats it stays
// readable after Close, when the ticker's failures typically happen.
func (e *Engine) RefreshErrors() int64 { return e.refreshErrors.Load() }

// IngestedEdges reports the number of edges accepted so far. Unlike
// Stats it is a single atomic load — no message rides the shard
// mailboxes — so it is safe to call at directory-listing frequency.
func (e *Engine) IngestedEdges() int64 { return e.ingested.Load() }

// IngestStalls reports the number of shard-mailbox sends that found the
// mailbox full and had to wait (backpressure events). A single atomic
// load, safe at any frequency.
func (e *Engine) IngestStalls() int64 { return e.ingestStalls.Load() }

// Counters is the cheap subset of Stats: every field is an atomic read,
// no message rides the shard mailboxes, so a metrics scrape can collect
// it per namespace at high frequency without perturbing ingest.
type Counters struct {
	// IngestedEdges / Batches / IngestStalls account the ingest plane.
	IngestedEdges int64
	Batches       int64
	IngestStalls  int64
	// DeletedEdges counts accepted delete records; always 0 on
	// append-only modes.
	DeletedEdges int64
	// Queries / QueryCacheHits account the query plane.
	Queries        int64
	QueryCacheHits int64
	// Refreshes / RefreshSkips / RefreshErrors account the merge plane;
	// RefreshNanos sums the wall time of the Refreshes builds (skips add
	// nothing), so RefreshNanos / Refreshes is the mean refresh time.
	Refreshes     int64
	RefreshNanos  int64
	RefreshSkips  int64
	RefreshErrors int64
	// SnapshotSeq / SnapshotEdges identify the published snapshot (zero
	// before the first merge); SnapshotKeptEdges is what its merged state
	// holds and SnapshotPStar the probability it sampled elements with
	// (dynamic: the smaller of the sketch bar and 2^−level of the L0 level
	// that decoded; weighted: the smallest class's).
	SnapshotSeq       uint64
	SnapshotEdges     int64
	SnapshotKeptEdges int64
	SnapshotPStar     float64
	// ShardKeptEdges sums what the shard states held right after the last
	// freeze. On a sketch engine it tracks SnapshotKeptEdges from the
	// second refresh on (shards shed above the published bar) rather than
	// Shards × budget — except after a round that follows a failed
	// refresh, which cuts without a base and so sheds nothing.
	ShardKeptEdges int64
	// ShardStateBytes sums the shard states' resident bytes
	// (core.Stats.Bytes) at the last freeze.
	ShardStateBytes int64
	// BarDrops counts the records the router dropped against their shard's
	// published bar, never copied or enqueued: inserts above a sketch
	// shard's eviction bar, inserts and deletes above a dynamic engine's
	// floor. Always 0 on modes whose shard states publish no bar.
	BarDrops int64
	// DynamicFloor is the floor level a dynamic engine's bars are
	// published at (0 until a refresh or a restore raises it, and on the
	// other modes).
	DynamicFloor int
	// GraphFolds counts the query graphs a refresh carried forward from
	// the previous snapshot's (sketch engines only); GraphBuilds the full
	// transposes of the engine's snapshots, on a first query or when a
	// fold compacts; MaterializeNanos sums the time both took, the cover
	// index included. GraphFolds / (GraphFolds + GraphBuilds) is the fold
	// share, MaterializeNanos over their sum the mean materialization.
	GraphFolds       int64
	GraphBuilds      int64
	MaterializeNanos int64
}

// Counters returns the engine's cheap counters (see Counters).
func (e *Engine) Counters() Counters {
	c := Counters{
		IngestedEdges:    e.ingested.Load(),
		Batches:          e.batches.Load(),
		IngestStalls:     e.ingestStalls.Load(),
		DeletedEdges:     e.deletes.Load(),
		Queries:          e.queries.Load(),
		QueryCacheHits:   e.cacheHits.Load(),
		Refreshes:        e.refreshes.Load(),
		RefreshNanos:     e.refreshNanos.Load(),
		RefreshSkips:     e.refreshSkips.Load(),
		RefreshErrors:    e.refreshErrors.Load(),
		ShardKeptEdges:   e.shardKept.Load(),
		ShardStateBytes:  e.shardBytes.Load(),
		BarDrops:         e.barDrops.Load(),
		GraphFolds:       e.graphFolds.Load(),
		GraphBuilds:      e.graphBuilds.Load(),
		MaterializeNanos: e.materializeNanos.Load(),
	}
	if e.bars != nil && e.mode.Name() == ModeDynamic {
		c.DynamicFloor = bits.LeadingZeros64(e.bars[0].Load())
	}
	if snap := e.snap.Load(); snap != nil {
		st := snap.state.Stats()
		c.SnapshotSeq = snap.Seq
		c.SnapshotEdges = snap.IngestedEdges
		c.SnapshotKeptEdges = int64(st.EdgesKept)
		c.SnapshotPStar = st.PStar
	}
	return c
}

// Algo identifies a query algorithm.
type Algo string

const (
	// AlgoKCover runs the greedy (1−1/e)-approximation for max k-cover on
	// the snapshot state — Algorithm 3's offline step (Theorem 3.1).
	AlgoKCover Algo = "kcover"
	// AlgoOutliers runs greedy partial cover until a 1−λ fraction of the
	// snapshot's sampled elements is covered — the offline step of the
	// outlier algorithm (Theorem 3.3) on the service sketch.
	AlgoOutliers Algo = "outliers"
	// AlgoGreedy runs the full greedy set cover over the snapshot sketch.
	// It carries only Theorem 3.4's multi-pass guarantee: Assadi–Khanna–Li
	// bound single-pass set cover from below.
	AlgoGreedy Algo = "greedy"
	// AlgoWeightedKCover runs the weighted greedy (1−1/e for weighted
	// coverage) over the snapshot's scaled class-bank union. Only valid
	// on a weighted engine, where plain AlgoKCover is an alias for it —
	// the explicit name lets clients assert they are talking to a
	// weighted namespace.
	AlgoWeightedKCover Algo = "wkcover"
)

// Query is a request against a snapshot.
type Query struct {
	// Algo selects the algorithm (default empty = AlgoKCover at the HTTP
	// layer; the engine itself requires an explicit value).
	Algo Algo
	// K bounds the solution size (required for kcover).
	K int
	// Lambda is the outlier fraction in (0, 1) (required for outliers).
	Lambda float64
	// Refresh forces a coordinator merge before answering, so the result
	// reflects every previously ingested edge.
	Refresh bool
}

// QueryResult reports a query execution.
type QueryResult struct {
	// Algo echoes the executed algorithm.
	Algo Algo `json:"algo"`
	// Sets is the chosen solution, as set ids.
	Sets []int `json:"sets"`
	// SketchCoverage is the number of sampled elements Sets covers.
	SketchCoverage int `json:"sketch_coverage"`
	// EstimatedCoverage is SketchCoverage / p*, the Lemma 2.2 estimate of
	// the true coverage.
	EstimatedCoverage float64 `json:"estimated_coverage"`
	// SampledElements and PStar describe the snapshot the query ran on.
	// An empty (never-ingested) snapshot reports SampledElements 0 and
	// EstimatedCoverage 0 — never NaN/Inf, which JSON could not encode.
	SampledElements int     `json:"sampled_elements"`
	PStar           float64 `json:"p_star"`
	// Weighted marks results from the weighted query plane; there
	// EstimatedCoverage is the class-scaled total covered weight (not
	// SketchCoverage / p*) and WeightClasses counts the non-empty weight
	// classes in the snapshot bank.
	Weighted      bool `json:"weighted,omitempty"`
	WeightClasses int  `json:"weight_classes,omitempty"`
	// Engine names the engine mode for results from a mode selected by
	// name ("dynamic"); empty for the sketch and weighted planes, whose
	// result shape predates the field.
	Engine ModeName `json:"engine,omitempty"`
	// SnapshotSeq and SnapshotEdges identify the snapshot; a query issued
	// during ingestion reports the merge it was served from.
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	SnapshotEdges int64  `json:"snapshot_edges"`
}

// ValidateQuery checks q against an engine mode without executing it:
// algo known, k/lambda in range, algo defined for the mode. Engine.Query
// and the cluster query plane share it so a malformed query is rejected
// identically everywhere. The two unweighted modes share one rule (a
// dynamic snapshot is a sketch view); AlgoGreedy's guarantee is only
// Theorem 3.4's multi-pass one.
func ValidateQuery(q Query, mode ModeName) error {
	isWeighted := mode == ModeWeighted
	switch q.Algo {
	case AlgoKCover:
		if q.K <= 0 {
			return fmt.Errorf("server: kcover query needs positive k")
		}
	case AlgoWeightedKCover:
		if !isWeighted {
			return fmt.Errorf("server: wkcover requires a weighted engine (configure Weights)")
		}
		if q.K <= 0 {
			return fmt.Errorf("server: wkcover query needs positive k")
		}
	case AlgoOutliers:
		if !(q.Lambda > 0 && q.Lambda < 1) {
			return fmt.Errorf("server: outliers query needs lambda in (0,1), got %v", q.Lambda)
		}
	case AlgoGreedy:
	default:
		return fmt.Errorf("server: unknown query algo %q", q.Algo)
	}
	if isWeighted && (q.Algo == AlgoOutliers || q.Algo == AlgoGreedy) {
		return fmt.Errorf("server: algo %q is not defined on a weighted engine (weighted coverage serves kcover)", q.Algo)
	}
	return nil
}

// executeQuery validates q against the snapshot's mode and answers it
// from the snapshot's one greedy run over its materialized graph, for
// every mode and on engine snapshots and cluster views alike. hit reports
// that the run already held every pick the answer needed.
func executeQuery(snap *Snapshot, q Query) (res *QueryResult, hit bool, err error) {
	if err := ValidateQuery(q, snap.ModeName()); err != nil {
		return nil, false, err
	}
	mat, err := snap.materialized()
	if err != nil {
		return nil, false, err
	}
	st := snap.state.Stats()
	res = &QueryResult{
		Algo:          q.Algo,
		PStar:         st.PStar,
		SnapshotSeq:   snap.Seq,
		SnapshotEdges: snap.IngestedEdges,
	}
	if mat.weights != nil {
		snap.runOnce.Do(func() { snap.wrun = weighted.NewRun(weighted.Instance{G: mat.graph, W: mat.weights}) })
		wr, extended := snap.wrun.MaxCover(q.K)
		res.Sets = wr.Sets
		res.SketchCoverage = wr.CoveredElems
		res.EstimatedCoverage = wr.Covered // the weighted greedy scales per class already
		res.SampledElements = mat.graph.NumElems()
		res.Weighted = true
		res.WeightClasses = snap.Bank().Classes()
		return res, extended == 0, nil
	}
	snap.runOnce.Do(func() { snap.run = greedy.NewRun(mat.graph) })
	var (
		gr       greedy.Result
		extended int
	)
	switch q.Algo {
	case AlgoKCover:
		gr, extended = snap.run.MaxCover(q.K)
	case AlgoOutliers:
		// Ceiling, not truncation: a truncated target can leave the
		// covered fraction strictly below 1−λ (e.g. λ=0.001 over 999
		// elements truncates 998.001 to 998, i.e. 998/999 < 0.999). The
		// (1−1e-12) relative tolerance keeps float noise from rounding an
		// exactly-integral product up (10·0.3 evaluates above 3.0, which
		// a bare Ceil would turn into a target of 4).
		target := int(math.Ceil(float64(snap.run.CoveredElems()) * (1 - q.Lambda) * (1 - 1e-12)))
		gr, extended = snap.run.PartialCover(target)
	case AlgoGreedy:
		gr, extended = snap.run.SetCover()
	}
	res.Sets = gr.Sets
	res.SketchCoverage = gr.Covered
	// Lemma 2.2's estimate, also on the dynamic mode: its view is the
	// sketch's cut of a decoded priority prefix.
	res.EstimatedCoverage = safeEstimate(gr.Covered, st.PStar)
	res.SampledElements = st.ElementsKept
	if snap.ModeName() == ModeDynamic {
		res.Engine = ModeDynamic // the sketch result shape predates the field
	}
	return res, extended == 0, nil
}

// Query executes q against the current (or freshly merged) snapshot.
// Safe for concurrent use with Ingest: the snapshot is immutable. A
// snapshot computes each greedy pick once, however many queries ask;
// every call returns a privately owned Sets slice.
func (e *Engine) Query(q Query) (*QueryResult, error) {
	if err := ValidateQuery(q, e.ModeName()); err != nil {
		return nil, err
	}
	var (
		snap *Snapshot
		err  error
	)
	if q.Refresh {
		snap, err = e.Refresh()
	} else {
		snap, err = e.Snapshot()
	}
	if err != nil {
		return nil, err
	}
	return e.QuerySnapshot(snap, q)
}

// QuerySnapshot answers q from snap — one of the engine's own snapshots,
// or a cluster view of its namespace (MergeSnapshot) — and counts it in
// the engine's Queries and QueryCacheHits. q.Refresh is ignored; the
// caller picked the snapshot.
func (e *Engine) QuerySnapshot(snap *Snapshot, q Query) (*QueryResult, error) {
	res, hit, err := executeQuery(snap, q)
	if err != nil {
		return nil, err
	}
	e.queries.Add(1)
	if hit {
		e.cacheHits.Add(1)
	}
	return res, nil
}

// safeEstimate is the Lemma 2.2 estimate covered / p*, defined for the
// degenerate snapshots a long-running service can serve: an empty
// (never-ingested) snapshot covers nothing and estimates 0, and a
// sketch whose eviction bar collapsed to priority zero (p* = 0 — it
// retains no measurable sample) also estimates 0 instead of NaN/Inf,
// which would poison the JSON encoder downstream.
func safeEstimate(covered int, pStar float64) float64 {
	if covered <= 0 || pStar <= 0 {
		return 0
	}
	return float64(covered) / pStar
}

// WriteSnapshot merges and persists the service state in the engine
// mode's wire format: a sketch engine writes its merged sketch (v1
// format), a weighted engine its merged class bank (weighted.BankMagic
// framing), a dynamic engine its merged L0 sampler ("L0DYNS3" framing).
// ReadRestore / NewFromSnapshot decode any of them from the config. The
// persisted state carries the engine's true ingested-edge total (a
// merged state only counts the kept edges it replayed), so accounting
// survives restore.
func (e *Engine) WriteSnapshot(w io.Writer) (*Snapshot, error) {
	// Every persisted snapshot is a batch-aligned Checkpoint, so the
	// persisted edge total lands on a WAL record boundary — restoring
	// these bytes next to the engine's own WAL must never split a frame.
	// Without a WAL it is a Refresh cut under the exclusive ingest lock.
	// (Callers wanting truncation too use CheckpointEngine.)
	snap, err := e.Checkpoint()
	if err != nil {
		return nil, err
	}
	// The merged state was built with the snapshot's applied total as its
	// consumed-edge counter and is frozen, so serializing the published
	// state races with nothing.
	if err := snap.WriteState(w); err != nil {
		return nil, err
	}
	return snap, nil
}

// ReadRestore decodes a snapshot previously written by WriteSnapshot
// through the config's engine mode and returns cfg with RestoreState
// holding the decoded frozen state — for a sketch config the *core.View
// the bytes spell out, with no sketch rebuilt. The config must repeat the
// writing engine's parameters.
func ReadRestore(cfg Config, r io.Reader) (Config, error) {
	mode, err := cfg.EngineMode()
	if err != nil {
		return cfg, err
	}
	st, err := mode.ReadState(r)
	if err != nil {
		return cfg, fmt.Errorf("server: restoring %s snapshot: %w", mode.Name(), err)
	}
	cfg.RestoreState = st
	return cfg, nil
}

// NewFromSnapshot starts an engine seeded from persisted WriteSnapshot
// bytes — ReadRestore followed by New.
func NewFromSnapshot(r io.Reader, cfg Config) (*Engine, error) {
	cfg, err := ReadRestore(cfg, r)
	if err != nil {
		return nil, err
	}
	return New(cfg)
}

// Stats reports engine-level accounting.
type Stats struct {
	// Shards is the number of ingest workers (each owning one state).
	Shards int `json:"shards"`
	// IngestedEdges is the total number of edges accepted by Ingest.
	IngestedEdges int64 `json:"ingested_edges"`
	// Batches is the number of Ingest calls that delivered edges.
	Batches int64 `json:"batches"`
	// IngestStalls counts shard-mailbox sends that found the mailbox
	// full and had to wait — backpressure events, the signal the wire
	// ingest plane propagates to producers by pausing socket reads.
	IngestStalls int64 `json:"ingest_stalls"`
	// DeletedEdges counts accepted delete ops. Omitted when zero — the
	// legacy modes' stats shape predates the op plane.
	DeletedEdges int64 `json:"deleted_edges,omitempty"`
	// Queries is the number of queries served (hits included).
	Queries int64 `json:"queries"`
	// QueryCacheHits counts queries that needed no new greedy pick: their
	// snapshot's run already held the whole answer.
	QueryCacheHits int64 `json:"query_cache_hits"`
	// Refreshes counts coordinator merges that actually ran.
	Refreshes int64 `json:"refreshes"`
	// RefreshSkips counts Refresh calls satisfied by the idle
	// short-circuit (ingested-edge counter unchanged since the snapshot).
	RefreshSkips int64 `json:"refresh_skips"`
	// RefreshErrors counts refreshes that failed, whoever asked for them;
	// the merge ticker's first failure also reaches Config.OnRefreshError.
	RefreshErrors int64 `json:"refresh_errors"`
	// Weighted reports whether the engine runs the weighted query plane;
	// WeightClasses counts the non-empty weight classes in the current
	// snapshot's class bank (weighted engines only).
	Weighted      bool `json:"weighted,omitempty"`
	WeightClasses int  `json:"weight_classes,omitempty"`
	// Engine names the engine mode for modes selected by name
	// ("dynamic"); empty for the sketch and weighted planes, whose stats
	// shape predates the field.
	Engine ModeName `json:"engine,omitempty"`
	// ShardStats holds each shard state's accounting, in shard order.
	ShardStats []core.Stats `json:"shard_stats"`
	// SnapshotSeq identifies the current merged snapshot (0: none yet).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotEdges is the ingested-edge count the snapshot reflects.
	SnapshotEdges int64 `json:"snapshot_edges"`
	// SnapshotElements is the number of sampled elements in the snapshot
	// state.
	SnapshotElements int `json:"snapshot_elements"`
	// SnapshotKept is the number of edges the snapshot state holds.
	SnapshotKept int `json:"snapshot_kept_edges"`
	// SnapshotPStar is the snapshot state's sampling probability p*.
	SnapshotPStar float64 `json:"snapshot_p_star"`
}

// Stats returns a consistent per-shard and snapshot accounting. It rides
// the shard mailboxes, so it reflects all previously ingested batches.
func (e *Engine) Stats() (*Stats, error) {
	replies, err := e.placeStateRequests(false)
	if err != nil {
		return nil, err
	}
	st := &Stats{
		Shards:         len(e.shards),
		IngestedEdges:  e.ingested.Load(),
		Batches:        e.batches.Load(),
		IngestStalls:   e.ingestStalls.Load(),
		DeletedEdges:   e.deletes.Load(),
		Queries:        e.queries.Load(),
		QueryCacheHits: e.cacheHits.Load(),
		Refreshes:      e.refreshes.Load(),
		RefreshSkips:   e.refreshSkips.Load(),
		RefreshErrors:  e.refreshErrors.Load(),
		Weighted:       e.Weighted(),
	}
	if name := e.mode.Name(); name != ModeSketch && name != ModeWeighted {
		st.Engine = name
	}
	for _, ch := range replies {
		st.ShardStats = append(st.ShardStats, (<-ch).stats)
	}
	if snap := e.snap.Load(); snap != nil {
		st.SnapshotSeq = snap.Seq
		st.SnapshotEdges = snap.IngestedEdges
		st.SnapshotElements = snap.elements()
		st.SnapshotKept = snap.keptEdges()
		st.SnapshotPStar = snap.pStar()
		if bank := snap.Bank(); bank != nil {
			st.WeightClasses = bank.Classes()
		}
	}
	return st, nil
}

// Close stops the merge ticker and the shard goroutines. Ingest and
// queries fail afterwards; the last snapshot remains readable via
// Snapshot (it is immutable). Close is idempotent.
func (e *Engine) Close() error {
	e.ingestMu.Lock()
	if e.closed {
		e.ingestMu.Unlock()
		return nil
	}
	e.closed = true
	for _, sh := range e.shards {
		close(sh.mail)
	}
	e.ingestMu.Unlock()
	if e.stopTicker != nil {
		close(e.stopTicker)
		<-e.tickerDone
	}
	for _, sh := range e.shards {
		<-sh.done
	}
	if e.wal != nil {
		// Last: flush the log tail to stable storage. Every accepted batch
		// is already in the kernel (Append never returns before the write
		// syscall), so this bounds loss on a clean shutdown to zero even
		// under the "off" policy.
		return e.wal.Close()
	}
	return nil
}
