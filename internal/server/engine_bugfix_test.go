package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// This file pins the query-plane accounting fixes: the outliers target
// ceiling, the NaN-free empty-snapshot estimate, the ingest-counter /
// snapshot consistency under concurrency, and the background-merge
// error accounting. Each test fails on the pre-fix code.

// TestOutliersTargetCeiling: covering "all but a λ fraction" must round
// the target UP. With 999 singleton sets and λ=0.001 the target is
// ⌈998.001⌉ = 999; the pre-fix truncation asked for 998, leaving the
// covered fraction 998/999 ≈ 0.998999 strictly below 1−λ.
func TestOutliersTargetCeiling(t *testing.T) {
	const n = 999
	cfg := Config{NumSets: n, K: 4, Eps: 0.4, Seed: 1, EdgeBudget: 10 * n, Shards: 1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	edges := make([]bipartite.Edge, n)
	for i := range edges {
		edges[i] = bipartite.Edge{Set: uint32(i), Elem: uint32(i)} // singleton sets
	}
	if _, err := e.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.001, 0.01, 0.5} {
		res, err := e.Query(Query{Algo: AlgoOutliers, Lambda: lambda, Refresh: true})
		if err != nil {
			t.Fatal(err)
		}
		covered := res.SketchCoverage
		total := n // budget is ample: every element is sampled
		if frac := float64(covered) / float64(total); frac < 1-lambda {
			t.Fatalf("lambda=%v: covered %d of %d (%.6f) is below 1-lambda=%.6f",
				lambda, covered, total, frac, 1-lambda)
		}
	}

	// And the ceiling must not overshoot either: with 10 elements and
	// λ=0.7 the target is exactly 3, but 10·(1−0.7) evaluates just above
	// 3.0 in float64, so a bare Ceil would demand a 4th set.
	small, err := New(Config{NumSets: 10, K: 2, Eps: 0.4, Seed: 1, EdgeBudget: 100, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	tiny := make([]bipartite.Edge, 10)
	for i := range tiny {
		tiny[i] = bipartite.Edge{Set: uint32(i), Elem: uint32(i)}
	}
	if _, err := small.Ingest(tiny); err != nil {
		t.Fatal(err)
	}
	res, err := small.Query(Query{Algo: AlgoOutliers, Lambda: 0.7, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchCoverage != 3 || len(res.Sets) != 3 {
		t.Fatalf("lambda=0.7 over 10 singletons covered %d with %d sets, want exactly 3 (float noise overshoot)",
			res.SketchCoverage, len(res.Sets))
	}
}

// craftPStarZeroSketch fabricates valid v1 sketch bytes whose eviction
// bar sits at priority zero — p* = 0, the degenerate state the estimate
// guard must survive. No ingest path produces it cheaply (it needs an
// element hashing exactly to 0), so the test writes an empty sketch and
// flips the persisted eviction flag; ReadSketch then folds bar (0, 0).
func craftPStarZeroSketch(t *testing.T, params core.Params) *core.Sketch {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.MustNewSketch(params).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout after the 5-byte magic: nine 8-byte params fields, one hash
	// family byte, then the evicted flag (barHash/barElem already zero).
	evictedOff := 5 + 9*8 + 1
	raw[evictedOff] = 1
	sk, err := core.ReadSketch(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sk.PStar() != 0 {
		t.Fatalf("crafted sketch has p* = %v, want 0", sk.PStar())
	}
	return sk
}

// TestEmptySnapshotEstimateDefined pins the division guard: a query
// against a snapshot with p* = 0 (and against a plain never-ingested
// engine) reports EstimatedCoverage 0 — never NaN or Inf, which would
// make json.Marshal fail downstream.
func TestEmptySnapshotEstimateDefined(t *testing.T) {
	cfg := Config{NumSets: 10, K: 2, Eps: 0.4, Seed: 3, EdgeBudget: 500, Shards: 2}
	cfg.RestoreState = craftPStarZeroSketch(t, cfg.Params()).Freeze()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Query(Query{Algo: AlgoKCover, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.EstimatedCoverage) || math.IsInf(res.EstimatedCoverage, 0) {
		t.Fatalf("p*=0 snapshot estimated %v, want 0", res.EstimatedCoverage)
	}
	if res.EstimatedCoverage != 0 || res.SampledElements != 0 {
		t.Fatalf("p*=0 snapshot result %+v, want 0 coverage over 0 sampled elements", res)
	}

	// The ordinary empty engine (never ingested, p* = 1) is defined too.
	fresh, err := New(Config{NumSets: 10, K: 2, Eps: 0.4, Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	res, err = fresh.Query(Query{Algo: AlgoKCover, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatedCoverage != 0 || res.SampledElements != 0 || len(res.Sets) != 0 {
		t.Fatalf("fresh engine result %+v, want the empty result", res)
	}
}

// TestIngestRefreshAccountingConsistent hammers Ingest concurrently
// with Refresh and asserts every published snapshot's IngestedEdges
// equals the edges its merged sketch actually reflects. All edges are
// distinct and the budget is ample, so the merged kept-edge count IS
// the applied-edge count. Pre-fix, the counter was read before the
// shard collection and bumped after the mailbox sends, so a snapshot
// could contain batches its IngestedEdges had not counted (run with
// -race to also certify the ordering).
func TestIngestRefreshAccountingConsistent(t *testing.T) {
	const (
		n         = 8
		producers = 4
		batches   = 250
		batchLen  = 7
	)
	cfg := Config{NumSets: n, K: 2, Eps: 0.4, Seed: 1, EdgeBudget: 1 << 20, Shards: 4, QueueDepth: 4}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var next atomic.Uint32
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]bipartite.Edge, batchLen)
			for i := 0; i < batches; i++ {
				for j := range batch {
					id := next.Add(1) // globally unique element per edge
					batch[j] = bipartite.Edge{Set: id % n, Elem: id}
				}
				if _, err := e.Ingest(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func() {
		snap, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if kept := int64(snap.State().Stats().EdgesKept); kept != snap.IngestedEdges {
			t.Fatalf("snapshot seq %d reports %d ingested edges but its merged sketch holds %d",
				snap.Seq, snap.IngestedEdges, kept)
		}
	}
	for {
		select {
		case <-done:
			check()
			snap, err := e.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(producers * batches * batchLen); snap.IngestedEdges != want {
				t.Fatalf("final snapshot accounts %d of %d edges", snap.IngestedEdges, want)
			}
			return
		default:
			check()
		}
	}
}

// TestMergeLoopCountsRefreshErrors forces the background-merge failure
// path via a closed engine (the shard mailboxes are closed while the
// ticker still runs — the shutdown race mergeLoop used to swallow
// silently) and asserts the errors are counted and the OnRefreshError
// callback fires exactly once.
func TestMergeLoopCountsRefreshErrors(t *testing.T) {
	var logged atomic.Int32
	cfg := Config{
		NumSets: 4, K: 1, Eps: 0.5, Seed: 1, Shards: 2,
		MergeEvery:     5 * time.Millisecond,
		OnRefreshError: func(error) { logged.Add(1) },
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate Close's first half only: mark closed and drain the shard
	// goroutines, but leave the ticker running so it hits the error path.
	e.ingestMu.Lock()
	e.closed = true
	for _, sh := range e.shards {
		close(sh.mail)
	}
	e.ingestMu.Unlock()
	for _, sh := range e.shards {
		<-sh.done
	}

	deadline := time.Now().Add(5 * time.Second)
	for e.RefreshErrors() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("mergeLoop recorded %d refresh errors, want at least 2", e.RefreshErrors())
		}
		time.Sleep(time.Millisecond)
	}
	if got := logged.Load(); got != 1 {
		t.Fatalf("OnRefreshError fired %d times across %d failures, want once", got, e.RefreshErrors())
	}
	// Finish the shutdown by hand (Close already sees closed=true).
	close(e.stopTicker)
	<-e.tickerDone
}

// TestStatsReportRefreshErrors pins the refresh_errors counter's Stats
// surface on a healthy engine (zero) so the field is wired end to end.
func TestStatsReportRefreshErrors(t *testing.T) {
	e, err := New(Config{NumSets: 5, K: 1, Eps: 0.5, Seed: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RefreshErrors != 0 {
		t.Fatalf("fresh engine reports %d refresh errors", st.RefreshErrors)
	}
}

// TestFailedRefreshIsCountedWhoeverAsked: with no merge ticker at all, a
// build that fails under a refreshing query, a checkpoint or a snapshot
// write moves Stats.RefreshErrors once each — the counter used to belong
// to the ticker alone — and a good refresh afterwards moves it no further.
func TestFailedRefreshIsCountedWhoeverAsked(t *testing.T) {
	cfg := Config{NumSets: 8, K: 2, Eps: 0.5, Seed: 3, Shards: 2}
	probe := newProbeMode(t, cfg)
	e, err := newEngine(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Ingest([]bipartite.Edge{{Set: 1, Elem: 1}, {Set: 2, Elem: 5}}); err != nil {
		t.Fatal(err)
	}
	probe.mu.Lock()
	probe.failBefore = 3
	probe.mu.Unlock()
	callers := []struct {
		name string
		call func() error
	}{
		{"Query{Refresh: true}", func() error { _, err := e.Query(Query{Algo: AlgoKCover, K: 1, Refresh: true}); return err }},
		{"Checkpoint", func() error { _, err := e.Checkpoint(); return err }},
		{"WriteSnapshot", func() error { _, err := e.WriteSnapshot(io.Discard); return err }},
	}
	for i, c := range callers {
		if err := c.call(); !errors.Is(err, errProbeMerge) {
			t.Fatalf("%s returned %v, want the merge failure", c.name, err)
		}
		if got := e.RefreshErrors(); got != int64(i+1) {
			t.Fatalf("after a failed %s: %d refresh errors, want %d", c.name, got, i+1)
		}
	}
	if _, err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RefreshErrors != 3 || st.Refreshes != 1 {
		t.Fatalf("stats report %d refresh errors / %d refreshes, want 3 / 1", st.RefreshErrors, st.Refreshes)
	}
}
