package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
	"repro/internal/wire"
)

// runCtx is what one workload run needs: where things are, how big the
// run is, and the instance it replays.
type runCtx struct {
	serverBin string
	tmp       string // scratch directory of this run, inside the checkout
	seed      uint64
	sz        sizes

	inst *instance
	genS float64 // instance generation time, part of setup_s
}

// check is one correctness check of a workload. A failed check fails
// the run and counts every operation of the workload as failed.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// procResult is what one untraced process run measured.
type procResult struct {
	setupS     float64
	ingestOps  int64     // ops acked over the timed ingest part(s)
	ingestWall float64   // their wall time, seconds
	fresh      []float64 // fresh-query latencies, ms
	cpu        cpuTimes  // covserved CPU over the measured parts
	rssMB      float64   // time-averaged resident set over the measured parts
	rssPeakMB  float64   // largest VmHWM among the servers
	stateBytes int64
	sets       []int // the answer coverage_ratio is computed from

	attempted, failed  int64
	checks             []check
	queries, cacheHits int64 // summed over namespaces, for server.cache_hit_share
	// phase holds the single-phase numbers and scraped counters that the
	// traced run reports in per_layer (keys are perLayer names).
	phase map[string]float64
	dists map[string]dist // timing distributions, for the typed report
	sizes map[string]int
}

func newProcResult() *procResult {
	return &procResult{phase: map[string]float64{}, dists: map[string]dist{}, sizes: map[string]int{}}
}

func (r *procResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

func (r *procResult) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

// counter tallies attempted and failed operations from any goroutine.
type counter struct {
	mu                sync.Mutex
	attempted, failed int64
	firstErr          error
}

func (c *counter) op(err error) {
	c.mu.Lock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	c.mu.Unlock()
}

// timedSetup brings the workload's servers up three times and returns
// the last bring-up plus setup_s = instance generation + the median
// bring-up time (server start, namespace creation, preload). Repeating
// the part that belongs to the product steadies the number; the first
// two bring-ups are torn down again.
func timedSetup[T any](rc *runCtx, bring func(dir string) (T, error), tear func(T)) (T, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(rc.tmp, fmt.Sprintf("up%d", i))
		if err := os.MkdirAll(dir, 0o777); err != nil {
			var zero T
			return zero, 0, err
		}
		t0 := time.Now()
		v, err := bring(dir)
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 2 {
			return v, rc.genS + median(times), nil
		}
		tear(v)
		os.RemoveAll(dir)
	}
}

// sendEpochs streams epochs [from, to) over conn in batches, closed
// loop: Send blocks when the socket is full, so the server's own pace
// (TCP backpressure) sets the rate. It returns the edges sent and each
// epoch's wall time in ms.
func sendEpochs(rc *runCtx, conn *wire.Conn, from, to, batch int, ops *counter) (int64, []float64, error) {
	buf := make([]bipartite.Edge, batch)
	sent := int64(0)
	var epochMs []float64
	t0 := time.Now()
	err := rc.inst.eachBatch(from, to, batch, func(ep, off, n int) error {
		rc.inst.fill(buf[:n], ep, off)
		err := conn.Send(buf[:n])
		ops.op(err)
		sent += int64(n)
		if off+n == rc.inst.edges() {
			now := time.Now()
			epochMs = append(epochMs, now.Sub(t0).Seconds()*1e3)
			t0 = now
		}
		return err
	})
	return sent, epochMs, err
}

// sendEpochsPaced is the open-loop producer: batch i is due at
// start + (edges before it)/rate whatever the server does, and lag is
// how long after its due time each Send began (generator lateness plus
// any stall the previous Sends imposed).
func sendEpochsPaced(rc *runCtx, conn *wire.Conn, from, to, batch int, rate float64, ops *counter) (sent int64, lagMs []float64, err error) {
	buf := make([]bipartite.Edge, batch)
	start := time.Now()
	err = rc.inst.eachBatch(from, to, batch, func(ep, off, n int) error {
		due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lagMs = append(lagMs, max(0, time.Since(due).Seconds()*1e3))
		rc.inst.fill(buf[:n], ep, off)
		err := conn.Send(buf[:n])
		ops.op(err)
		sent += int64(n)
		return err
	})
	return sent, lagMs, err
}

// reference answers kcover k=sketchK on a one-shard in-process engine
// with the servers' sketch parameters, fed by feed. Merge-composability
// says every server answer must equal it bit for bit.
func reference(budget int, engine server.ModeName, feed func(e *server.Engine) error) (*server.QueryResult, error) {
	e, err := server.New(server.Config{
		NumSets: numSets, K: sketchK, Eps: sketchEps, Seed: sketchSeed,
		EdgeBudget: budget, Shards: 1, Engine: engine,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := feed(e); err != nil {
		return nil, err
	}
	return e.Query(server.Query{Algo: server.AlgoKCover, K: sketchK, Refresh: true})
}

// feedEpochs feeds epochs [from, to) to an in-process engine.
func feedEpochs(rc *runCtx, from, to int) func(e *server.Engine) error {
	return func(e *server.Engine) error {
		buf := make([]bipartite.Edge, 1<<16)
		return rc.inst.eachBatch(from, to, len(buf), func(ep, off, n int) error {
			rc.inst.fill(buf[:n], ep, off)
			_, err := e.Ingest(buf[:n])
			return err
		})
	}
}

// sameAnswer reports whether two kcover answers agree on the fields the
// equivalence contract covers. withEdges also compares snapshot_edges
// (off where the reference deliberately saw a shorter op history).
func sameAnswer(got, want *server.QueryResult, withEdges bool) (bool, string) {
	if !slices.Equal(got.Sets, want.Sets) || got.SketchCoverage != want.SketchCoverage ||
		(withEdges && got.SnapshotEdges != want.SnapshotEdges) {
		return false, fmt.Sprintf("got sets=%v cov=%d edges=%d, reference sets=%v cov=%d edges=%d",
			got.Sets, got.SketchCoverage, got.SnapshotEdges, want.Sets, want.SketchCoverage, want.SnapshotEdges)
	}
	return true, ""
}

// checkEngine runs the checks every workload shares against one
// namespace: ingested_edges equals the ops sent, refresh_errors is 0.
func checkEngine(r *procResult, label, base, ns string, wantOps int64) *server.Stats {
	st, err := engineStats(base, ns)
	if err != nil {
		r.check(label+" stats", false, "%v", err)
		return nil
	}
	r.check(label+" ingested_edges == ops sent", st.IngestedEdges == wantOps, "ingested %d, sent %d", st.IngestedEdges, wantOps)
	r.check(label+" refresh_errors == 0", st.RefreshErrors == 0, "refresh_errors %d", st.RefreshErrors)
	return st
}

// scrapeEngine adds one namespace's counters to the scraped per-layer
// numbers.
func scrapeEngine(r *procResult, st *server.Stats) {
	if st == nil {
		return
	}
	r.phase["server.batches"] += float64(st.Batches)
	r.phase["server.ingest_stalls"] += float64(st.IngestStalls)
	r.phase["server.refreshes"] += float64(st.Refreshes)
	r.phase["server.refresh_skips"] += float64(st.RefreshSkips)
	r.queries += st.Queries
	r.cacheHits += st.QueryCacheHits
}

// scrapeWire adds the wire plane's counters from /metrics.
func scrapeWire(r *procResult, base string) {
	m, err := metricsText(base)
	if err != nil {
		return
	}
	r.phase["wire.frames"] += sumPrefix(m, "covserved_wire_frames_total")
	r.phase["wire.backpressure_stalls"] += sumPrefix(m, "covserved_wire_backpressure_stalls_total")
}

// finish folds the operation counts and derived shares into r.
func (r *procResult) finish(ops *counter) {
	r.attempted, r.failed = ops.attempted, ops.failed
	if ops.firstErr != nil {
		r.check("no operation failed", false, "%d of %d failed, first: %v", ops.failed, ops.attempted, ops.firstErr)
	}
	if r.queries > 0 {
		r.phase["server.cache_hit_share"] = float64(r.cacheHits) / float64(r.queries)
	}
	if !r.correct() {
		r.failed = r.attempted
	}
	if r.attempted > 0 {
		r.phase["failed_share"] = float64(r.failed) / float64(r.attempted)
	}
	r.phase["server_rss_peak_mb"] = r.rssPeakMB
	r.phase["covserved.cpu_user_s"] = r.cpu.user
	r.phase["covserved.cpu_sys_s"] = r.cpu.sys
	if len(r.fresh) > 0 {
		r.dists["fresh_query_ms"] = summarize(r.fresh)
		r.phase["fresh_query_p90_ms"] = percentile(r.fresh, 0.9)
	}
}
