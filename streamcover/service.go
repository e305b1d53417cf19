package streamcover

import (
	"fmt"
	"io"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
)

// ServiceOptions configures a long-running coverage service (see
// internal/server for the engine architecture). The embedded Options
// carry the usual accuracy/seed/budget knobs; a Service additionally
// needs K, the solution size the sketch is provisioned for.
type ServiceOptions struct {
	// Options are the accuracy/seed/space knobs shared with the one-shot
	// algorithms. A Service and a MaxCoverage run with identical Options
	// (and k = K) return identical answers over the same edges.
	Options
	// K is the solution size the service sketch supports with guarantee
	// (required, ≥ 1). Queries may ask for any k; Theorem 3.1's guarantee
	// holds for k ≤ K.
	K int
	// Shards is the number of concurrent ingest workers (default 4).
	Shards int
	// BatchQueue is the per-shard mailbox depth, in sub-batches of about
	// 1 024 / Shards edges (default 64).
	// When full, Ingest blocks — backpressure instead of unbounded memory.
	BatchQueue int
	// MergeEvery, when positive, merges shard sketches into a fresh
	// queryable snapshot on this period.
	MergeEvery time.Duration
	// Weights, when non-nil, makes this a weighted-coverage service:
	// each shard keeps one H≤n sketch per geometric weight class
	// (instead of a single sketch), and KCover maximizes the total
	// weight of the covered elements. A weighted service answers
	// bit-identically to the one-shot MaxWeightedCoverage run with the
	// same Options and weight oracle over the same edges. Outlier and
	// full-greedy queries are not defined on weighted instances and
	// return an error. NewWeightedService is the explicit constructor.
	Weights *Weights
	// Engine selects the engine mode by name: "sketch" (the default;
	// also implied empty), "weighted" (implied by Weights) or "dynamic",
	// the insert/delete L0-sampler engine — the only mode whose
	// ApplyOps/Delete accept retractions. Its snapshot is the H≤n sketch
	// of the net edge set cut at the L0 level that decoded, so it answers
	// every query the sketch engine does. NewDynamicService is its
	// explicit constructor.
	Engine string
	// Durability, when non-nil, gives the service a write-ahead log:
	// accepted batches are logged before the ingest workers see them, and
	// construction replays any log tail a restored snapshot does not
	// cover. See Durability for the fsync policies, Service.Checkpoint
	// for snapshot + log truncation. Nil (the default) keeps the service
	// purely in-memory.
	Durability *Durability
}

// Service is a live, concurrently-ingestible coverage-query service: the
// H≤n sketch lifted from a batch library into a long-running sharded
// engine. Feed it edges from any number of goroutines, query it at any
// time; answers are computed on a merged snapshot of all shard sketches
// and carry the same guarantees as the one-shot algorithms, because the
// merged sketch equals the sketch a single pass would have built.
//
// The zero Service is not usable; construct with NewService and Close
// when done. cmd/covserved exposes a Service over HTTP.
type Service struct {
	engine *server.Engine
}

// NewService starts a coverage service for instances with numSets sets
// (weighted when opt.Weights is set).
func NewService(numSets int, opt ServiceOptions) (*Service, error) {
	cfg, err := serviceConfig(numSets, opt) // shared with the Hub namespaces
	if err != nil {
		return nil, err
	}
	eng, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{engine: eng}, nil
}

// NewWeightedService starts a weighted coverage service: KCover picks k
// sets maximizing the total weight of the covered elements, answering
// bit-identically to MaxWeightedCoverage with the same Options and
// weights over the same edges. It is NewService with opt.Weights set.
func NewWeightedService(numSets int, weights Weights, opt ServiceOptions) (*Service, error) {
	opt.Weights = &weights
	return NewService(numSets, opt)
}

// RestoreService starts a service from a snapshot previously written by
// WriteSnapshot. numSets and opt must match the writing service —
// including opt.Weights: a weighted service persists a class bank, an
// unweighted one a single sketch, and the options select the decoder.
func RestoreService(r io.Reader, numSets int, opt ServiceOptions) (*Service, error) {
	cfg, err := serviceConfig(numSets, opt)
	if err != nil {
		return nil, err
	}
	cfg, err = server.ReadRestore(cfg, r)
	if err != nil {
		return nil, fmt.Errorf("streamcover: restoring service: %w", err)
	}
	eng, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{engine: eng}, nil
}

// Engine exposes the underlying engine, e.g. to mount its HTTP handler.
func (s *Service) Engine() *server.Engine { return s.engine }

// Weighted reports whether the service runs the weighted query plane
// (constructed with ServiceOptions.Weights / NewWeightedService).
func (s *Service) Weighted() bool { return s.engine.Weighted() }

// Ingest absorbs a batch of edges. Safe for concurrent use; blocks only
// for backpressure when shard queues are full. The caller's slice may be
// reused as soon as Ingest returns.
func (s *Service) Ingest(edges []Edge) error {
	_, err := s.engine.Ingest(edges)
	return err
}

// IngestStream drains st into the service in batches of batchSize
// (default 1024) and returns the number of edges ingested.
func (s *Service) IngestStream(st Stream, batchSize int) (int64, error) {
	if batchSize < 1 {
		batchSize = 1024
	}
	return stream.Batches(st, batchSize, s.Ingest)
}

// Refresh forces a coordinator merge so subsequent queries reflect every
// previously ingested edge.
func (s *Service) Refresh() error {
	_, err := s.engine.Refresh()
	return err
}

// ServiceQueryResult reports a service query.
type ServiceQueryResult struct {
	// Sets is the chosen solution.
	Sets []int
	// EstimatedCoverage estimates C(Sets) on everything ingested up to the
	// snapshot the query ran on (Lemma 2.2).
	EstimatedCoverage float64
	// SketchCoverage is the raw covered-count inside the snapshot sketch.
	SketchCoverage int
	// SnapshotEdges is the ingested-edge count of that snapshot — how
	// fresh the answer is.
	SnapshotEdges int64
}

func fromEngineResult(r *server.QueryResult) *ServiceQueryResult {
	return &ServiceQueryResult{
		Sets:              r.Sets,
		EstimatedCoverage: r.EstimatedCoverage,
		SketchCoverage:    r.SketchCoverage,
		SnapshotEdges:     r.SnapshotEdges,
	}
}

// KCover answers a max-k-cover query against the current snapshot (stale
// by design; call Refresh first — or pass fresh=true — for a fully
// up-to-date answer). With k = Options.K and a fresh snapshot, the
// answer equals the one-shot MaxCoverage over the same edges; on a
// weighted service it runs the weighted greedy and equals the one-shot
// MaxWeightedCoverage (EstimatedCoverage is then the covered weight).
func (s *Service) KCover(k int, fresh bool) (*ServiceQueryResult, error) {
	r, err := s.engine.Query(server.Query{Algo: server.AlgoKCover, K: k, Refresh: fresh})
	if err != nil {
		return nil, err
	}
	return fromEngineResult(r), nil
}

// CoverWithOutliers greedily covers a 1−lambda fraction of the sampled
// elements on the current snapshot.
func (s *Service) CoverWithOutliers(lambda float64, fresh bool) (*ServiceQueryResult, error) {
	r, err := s.engine.Query(server.Query{Algo: server.AlgoOutliers, Lambda: lambda, Refresh: fresh})
	if err != nil {
		return nil, err
	}
	return fromEngineResult(r), nil
}

// GreedyCover runs the full greedy set cover over the snapshot sketch.
func (s *Service) GreedyCover(fresh bool) (*ServiceQueryResult, error) {
	r, err := s.engine.Query(server.Query{Algo: server.AlgoGreedy, Refresh: fresh})
	if err != nil {
		return nil, err
	}
	return fromEngineResult(r), nil
}

// ServiceStats reports service accounting.
type ServiceStats struct {
	// Shards is the ingest worker count.
	Shards int
	// IngestedEdges is the total number of edges accepted.
	IngestedEdges int64
	// SnapshotEdges is the ingested-edge count of the current snapshot
	// (0 when no merge has happened yet).
	SnapshotEdges int64
	// SketchEdges is the number of edges the current merged sketch holds.
	SketchEdges int
	// SketchElements is the number of sampled elements the current merged
	// sketch holds.
	SketchElements int
	// PStar is the snapshot's sampling probability.
	PStar float64
	// Queries counts queries served (hits included).
	Queries int64
	// QueryCacheHits counts queries that needed no new greedy pick: a
	// snapshot runs its greedy once and every query is a prefix of that
	// run, so only a query asking for more picks than any before it on
	// the same snapshot computes anything.
	QueryCacheHits int64
	// Weighted reports whether the service runs the weighted query
	// plane; WeightClasses counts the non-empty weight classes in the
	// current snapshot (weighted services only).
	Weighted      bool
	WeightClasses int
}

// Stats returns a consistent accounting of the service.
func (s *Service) Stats() (*ServiceStats, error) {
	st, err := s.engine.Stats()
	if err != nil {
		return nil, err
	}
	return &ServiceStats{
		Shards:         st.Shards,
		IngestedEdges:  st.IngestedEdges,
		SnapshotEdges:  st.SnapshotEdges,
		SketchEdges:    st.SnapshotKept,
		SketchElements: st.SnapshotElements,
		PStar:          st.SnapshotPStar,
		Queries:        st.Queries,
		QueryCacheHits: st.QueryCacheHits,
		Weighted:       st.Weighted,
		WeightClasses:  st.WeightClasses,
	}, nil
}

// WriteSnapshot merges and serializes the service state; restore it with
// RestoreService.
func (s *Service) WriteSnapshot(w io.Writer) error {
	_, err := s.engine.WriteSnapshot(w)
	return err
}

// Close stops the ingest workers. Idempotent; further calls on the
// service fail with an error.
func (s *Service) Close() error { return s.engine.Close() }
