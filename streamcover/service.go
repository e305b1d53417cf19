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
// needs K, the solution size the sketch is provisioned for. It keeps its
// own type because it embeds Options and Durability, which do.
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

// ServiceQueryResult reports a service query. It is the engine's own
// result (the JSON body covserved answers with), so a query passes it
// through without a copy. Sets is the chosen solution; EstimatedCoverage
// estimates C(Sets) on everything ingested up to the snapshot the query
// ran on (Lemma 2.2; the covered weight on a weighted service);
// SketchCoverage is the raw covered count inside the snapshot sketch;
// SnapshotEdges is that snapshot's ingested-edge count — how fresh the
// answer is.
type ServiceQueryResult = server.QueryResult

// KCover answers a max-k-cover query against the current snapshot (stale
// by design; call Refresh first — or pass fresh=true — for a fully
// up-to-date answer). With k = Options.K and a fresh snapshot, the
// answer equals the one-shot MaxCoverage over the same edges; on a
// weighted service it runs the weighted greedy and equals the one-shot
// MaxWeightedCoverage (EstimatedCoverage is then the covered weight).
func (s *Service) KCover(k int, fresh bool) (*ServiceQueryResult, error) {
	return s.engine.Query(server.Query{Algo: server.AlgoKCover, K: k, Refresh: fresh})
}

// CoverWithOutliers greedily covers a 1−lambda fraction of the sampled
// elements on the current snapshot.
func (s *Service) CoverWithOutliers(lambda float64, fresh bool) (*ServiceQueryResult, error) {
	return s.engine.Query(server.Query{Algo: server.AlgoOutliers, Lambda: lambda, Refresh: fresh})
}

// GreedyCover runs the full greedy set cover over the snapshot sketch.
func (s *Service) GreedyCover(fresh bool) (*ServiceQueryResult, error) {
	return s.engine.Query(server.Query{Algo: server.AlgoGreedy, Refresh: fresh})
}

// ServiceStats reports service accounting. It is the engine's own
// stats (the JSON body of covserved's /v1/stats): IngestedEdges counts
// the edges accepted, SnapshotEdges those the current snapshot reflects
// (0 before the first merge), SnapshotKept, SnapshotElements and
// SnapshotPStar describe the merged sketch, and Queries/QueryCacheHits
// count the queries served and those that needed no new greedy pick.
type ServiceStats = server.Stats

// Stats returns a consistent accounting of the service.
func (s *Service) Stats() (*ServiceStats, error) { return s.engine.Stats() }

// WriteSnapshot merges and serializes the service state; restore it with
// RestoreService.
func (s *Service) WriteSnapshot(w io.Writer) error {
	_, err := s.engine.WriteSnapshot(w)
	return err
}

// Close stops the ingest workers. Idempotent; further calls on the
// service fail with an error.
func (s *Service) Close() error { return s.engine.Close() }
