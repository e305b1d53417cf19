package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/stream"
	"repro/internal/workload"
)

func testConfig(n, m, k int, seed uint64, shards int) Config {
	return Config{
		NumSets: n, NumElems: m, K: k,
		Eps: 0.4, Seed: seed, EdgeBudget: 50 * n,
		Shards: shards, QueueDepth: 8,
	}
}

// ingestAll pushes every edge of g through the engine in batches.
func ingestAll(t *testing.T, e *Engine, g *bipartite.Graph, batch int, seed uint64) {
	t.Helper()
	edges := stream.Drain(stream.Shuffled(g, seed))
	for i := 0; i < len(edges); i += batch {
		j := i + batch
		if j > len(edges) {
			j = len(edges)
		}
		if _, err := e.Ingest(edges[i:j]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineMatchesSinglePassKCover(t *testing.T) {
	const (
		n, m, k = 60, 5000, 6
		seed    = 21
	)
	inst := workload.Zipf(n, m, 900, 0.9, 0.7, seed)
	cfg := testConfig(n, m, k, seed, 4)

	// Offline single-pass reference: Algorithm 3 with identical options.
	opt := algorithms.Options{Eps: cfg.Eps, Seed: cfg.Seed, NumElems: m, EdgeBudget: cfg.EdgeBudget}
	offline, err := algorithms.KCover(stream.Shuffled(inst.G, 3), n, k, opt)
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 257, 9)

	res, err := e.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatedCoverage != offline.EstimatedCoverage {
		t.Fatalf("service estimate %v != offline %v", res.EstimatedCoverage, offline.EstimatedCoverage)
	}
	if len(res.Sets) != len(offline.Sets) {
		t.Fatalf("service sets %v != offline %v", res.Sets, offline.Sets)
	}
	for i := range res.Sets {
		if res.Sets[i] != offline.Sets[i] {
			t.Fatalf("service sets %v != offline %v", res.Sets, offline.Sets)
		}
	}
	if res.SnapshotEdges != int64(inst.G.NumEdges()) {
		t.Fatalf("snapshot saw %d of %d edges", res.SnapshotEdges, inst.G.NumEdges())
	}
}

func TestQueriesDuringConcurrentIngest(t *testing.T) {
	const n, m, k = 40, 3000, 4
	inst := workload.PlantedKCover(n, m, k, 0.9, 30, 5)
	e, err := New(testConfig(n, m, k, 11, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	edges := stream.Drain(stream.Shuffled(inst.G, 7))
	var wg sync.WaitGroup
	// Two concurrent producers.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(part []bipartite.Edge) {
			defer wg.Done()
			for i := 0; i < len(part); i += 101 {
				j := i + 101
				if j > len(part) {
					j = len(part)
				}
				if _, err := e.Ingest(part[i:j]); err != nil {
					t.Error(err)
					return
				}
			}
		}(edges[p*len(edges)/2 : (p+1)*len(edges)/2])
	}
	// Concurrent queries with forced merges must succeed mid-ingest.
	for q := 0; q < 5; q++ {
		res, err := e.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SketchCoverage < 0 {
			t.Fatalf("bad coverage %d", res.SketchCoverage)
		}
	}
	wg.Wait()

	res, err := e.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("final snapshot saw %d of %d edges", res.SnapshotEdges, len(edges))
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestedEdges != int64(len(edges)) || len(st.ShardStats) != 4 {
		t.Fatalf("stats %+v", st)
	}
	var seen int64
	for _, s := range st.ShardStats {
		seen += s.EdgesSeen
	}
	if seen != int64(len(edges)) {
		t.Fatalf("shards consumed %d of %d edges", seen, len(edges))
	}
}

func TestPeriodicMergePublishesSnapshots(t *testing.T) {
	inst := workload.Uniform(20, 1000, 0.05, 3)
	cfg := testConfig(20, 1000, 3, 5, 2)
	cfg.MergeEvery = 5 * time.Millisecond
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 64, 1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.IngestedEdges == int64(inst.G.NumEdges()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticker never caught up: snapshot at %d of %d edges",
				snap.IngestedEdges, inst.G.NumEdges())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSnapshotRestoreResumesService(t *testing.T) {
	const n, m, k = 40, 3000, 4
	inst := workload.Zipf(n, m, 700, 0.9, 0.7, 13)
	cfg := testConfig(n, m, k, 29, 4)
	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	half := len(edges) / 2

	// Reference: one service sees everything.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}

	// First service ingests half, persists, and shuts down.
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Ingest(edges[:half]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := first.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Second service restores and ingests the rest.
	restored, err := core.ReadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.RestoreState = restored.Freeze()
	second, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Ingest(edges[half:]); err != nil {
		t.Fatal(err)
	}
	got, err := second.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedCoverage != want.EstimatedCoverage || got.PStar != want.PStar {
		t.Fatalf("restored service answer %v/%v != uninterrupted %v/%v",
			got.EstimatedCoverage, got.PStar, want.EstimatedCoverage, want.PStar)
	}
	// The ingested-edge accounting must survive the snapshot/restore
	// cycle: a merged sketch only replays kept edges, so WriteSnapshot
	// carries the engine's true total instead.
	if got.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("restored service accounts %d of %d ingested edges",
			got.SnapshotEdges, len(edges))
	}
}

func TestQueryAlgos(t *testing.T) {
	inst := workload.PlantedSetCover(30, 2000, 5, 20, 7)
	e, err := New(testConfig(30, 2000, 5, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 500, 1)

	if _, err := e.Query(Query{Algo: AlgoKCover}); err == nil {
		t.Fatal("kcover without k accepted")
	}
	if _, err := e.Query(Query{Algo: AlgoOutliers, Lambda: 1.5}); err == nil {
		t.Fatal("outliers with bad lambda accepted")
	}
	if _, err := e.Query(Query{Algo: "nope"}); err == nil {
		t.Fatal("unknown algo accepted")
	}

	out, err := e.Query(Query{Algo: AlgoOutliers, Lambda: 0.1, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Query(Query{Algo: AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if out.SketchCoverage > full.SketchCoverage {
		t.Fatalf("outlier cover %d exceeds full cover %d", out.SketchCoverage, full.SketchCoverage)
	}
	if len(out.Sets) > len(full.Sets) {
		t.Fatalf("outlier cover uses %d sets, full cover %d", len(out.Sets), len(full.Sets))
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{NumSets: 0, K: 1}); err == nil {
		t.Fatal("NumSets=0 accepted")
	}
	e, err := New(testConfig(10, 100, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]bipartite.Edge{{Set: 10, Elem: 0}}); err == nil {
		t.Fatal("out-of-range set id accepted")
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Ingest([]bipartite.Edge{{Set: 1, Elem: 1}}); err == nil {
		t.Fatal("ingest after close accepted")
	}
	if _, err := e.Stats(); err == nil {
		t.Fatal("stats after close accepted")
	}
}

// TestFirstSnapshotSingleflight pins the thundering-herd fix: concurrent
// Snapshot() calls on an engine with no snapshot yet must collapse into
// exactly one coordinator merge.
func TestFirstSnapshotSingleflight(t *testing.T) {
	inst := workload.Uniform(30, 1500, 0.08, 17)
	e, err := New(testConfig(30, 1500, 4, 23, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 200, 3)

	const callers = 16
	snaps := make([]*Snapshot, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := e.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = s
		}(i)
	}
	wg.Wait()
	for i, s := range snaps {
		if s == nil || s.Seq != 1 {
			t.Fatalf("caller %d got snapshot %+v, want the single Seq=1 merge", i, s)
		}
		if s != snaps[0] {
			t.Fatalf("caller %d got a different snapshot object", i)
		}
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Refreshes != 1 {
		t.Fatalf("%d coordinator merges ran for %d concurrent first snapshots", st.Refreshes, callers)
	}
}

// TestIdleRefreshShortCircuits pins satellite 2: Refresh (and
// Query{Refresh:true}) on an engine whose ingested-edge counter has not
// moved reuses the published snapshot instead of re-merging, and the
// snapshot Seq does not advance.
func TestIdleRefreshShortCircuits(t *testing.T) {
	inst := workload.Zipf(30, 2000, 400, 0.9, 0.7, 19)
	e, err := New(testConfig(30, 2000, 4, 31, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 300, 5)

	first, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 {
		t.Fatalf("first refresh got seq %d", first.Seq)
	}
	again, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("idle Refresh rebuilt the snapshot")
	}
	res, err := e.Query(Query{Algo: AlgoKCover, K: 4, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotSeq != first.Seq {
		t.Fatalf("idle Query{Refresh:true} advanced seq to %d", res.SnapshotSeq)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Refreshes != 1 || st.RefreshSkips != 2 {
		t.Fatalf("refreshes=%d skips=%d, want 1 merge and 2 short-circuits", st.Refreshes, st.RefreshSkips)
	}

	// New edges re-arm the merge.
	if _, err := e.Ingest([]bipartite.Edge{{Set: 0, Elem: 0}}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != first.Seq+1 {
		t.Fatalf("dirty refresh got seq %d, want %d", after.Seq, first.Seq+1)
	}
}

// TestQueryCache pins the query plane's contract: a snapshot runs its
// greedy once and every query — whatever its algo, k or λ, in whatever
// order — is the prefix of that run a one-shot greedy on the snapshot's
// graph returns. A query is a hit exactly when no earlier query on the
// snapshot left the run shorter than its answer, and a new snapshot
// starts a new run.
func TestQueryCache(t *testing.T) {
	inst := workload.PlantedKCover(40, 2500, 5, 0.9, 25, 3)
	e, err := New(testConfig(40, 2500, 5, 7, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 400, 1)

	// oneShot is the reference: a fresh greedy run on the snapshot graph.
	oneShot := func(g *bipartite.Graph, q Query) greedy.Result {
		switch q.Algo {
		case AlgoOutliers:
			return greedy.PartialCover(g, int(math.Ceil(float64(g.CoveredElems())*(1-q.Lambda)*(1-1e-12))))
		case AlgoGreedy:
			return greedy.SetCover(g)
		}
		return greedy.MaxCover(g, q.K)
	}
	wantHits, wantQueries := int64(0), int64(0)
	// ask runs qs in order against the published snapshot, whose run holds
	// have picks so far, and returns the run's new length.
	ask := func(have int, qs ...Query) int {
		t.Helper()
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		g, err := snap.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			got, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := oneShot(g, q)
			if !sameIntSets(got.Sets, want.Sets) || got.SketchCoverage != want.Covered {
				t.Fatalf("%+v: got %v covering %d, one-shot greedy %v covering %d",
					q, got.Sets, got.SketchCoverage, want.Sets, want.Covered)
			}
			wantQueries++
			if len(want.Sets) <= have {
				wantHits++
			}
			have = max(have, len(want.Sets))
			st, _ := e.Stats()
			if st.Queries != wantQueries || st.QueryCacheHits != wantHits {
				t.Fatalf("after %+v (run holds %d picks): queries=%d hits=%d, want %d and %d",
					q, have, st.Queries, st.QueryCacheHits, wantQueries, wantHits)
			}
		}
		return have
	}
	kcover := func(k int) Query { return Query{Algo: AlgoKCover, K: k} }

	have := ask(0, kcover(2), kcover(3), kcover(5)) // ascending: each extends
	if wantHits != 0 || have != 5 {
		t.Fatalf("ascending asks: %d hits, run holds %d picks; want 0 and 5", wantHits, have)
	}
	have = ask(have, kcover(5), kcover(4), kcover(1)) // repeat, then descending: prefixes
	if wantHits != 3 {
		t.Fatalf("repeated and descending asks made %d hits, want 3", wantHits)
	}
	// Other algos ride the same run: outliers and the full cover extend it
	// only past what kcover already picked, and then serve any k.
	have = ask(have,
		Query{Algo: AlgoOutliers, Lambda: 0.9}, Query{Algo: AlgoOutliers, Lambda: 0.05},
		Query{Algo: AlgoGreedy}, kcover(7), Query{Algo: AlgoOutliers, Lambda: 0.5},
		kcover(1000), Query{Algo: AlgoGreedy})
	if have <= 5 {
		t.Fatalf("the full cover left the run at %d picks", have)
	}

	// A new snapshot starts a new run: the smallest ask computes again,
	// and repeats on the new snapshot hit again.
	if _, err := e.Ingest([]bipartite.Edge{{Set: 1, Elem: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	before := wantHits
	ask(0, kcover(1), kcover(1), Query{Algo: AlgoGreedy}, kcover(3))
	if wantHits != before+2 {
		t.Fatalf("new snapshot: %d hits over miss, hit, miss, hit", wantHits-before)
	}
}

// TestRetiredQueryCacheFieldStillDecodes: the result LRU's size knob is
// gone, but bodies and files written while it existed still carry it. A
// POST /v1/ns body naming query_cache creates its namespace, and a v2
// container whose config frame names it restores, with the answers of the
// engine that wrote it.
func TestRetiredQueryCacheFieldStillDecodes(t *testing.T) {
	m := NewMulti("")
	defer m.Close()
	ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{}))
	defer ts.Close()
	resp, out := doJSON(t, "POST", ts.URL+"/v1/ns",
		`{"name":"old","num_sets":30,"k":3,"eps":0.4,"seed":7,"num_elems":2000,"edge_budget":1500,"shards":2,"query_cache":4}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/ns with query_cache: got %d: %s", resp.StatusCode, out)
	}
	e, _ := m.Get("old")
	ingestAll(t, e, workload.Uniform(30, 2000, 0.05, 3).G, 300, 1)
	want, err := e.Query(Query{Algo: AlgoKCover, K: 3, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}

	var file bytes.Buffer
	if err := m.WriteSnapshot(&file); err != nil {
		t.Fatal(err)
	}
	// Splice the field into the one config frame, as the parent commit
	// wrote it, and fix the frame's length prefix.
	data := file.Bytes()
	at := bytes.Index(data, []byte(`{"num_sets":`))
	if at < 4 {
		t.Fatalf("no config frame in the container")
	}
	frameLen := binary.LittleEndian.Uint32(data[at-4:])
	field := []byte(`"query_cache":4,`)
	old := append([]byte(nil), data[:at+1]...)
	old = append(old, field...)
	old = append(old, data[at+1:]...)
	binary.LittleEndian.PutUint32(old[at-4:], frameLen+uint32(len(field)))

	restored := NewMulti("")
	defer restored.Close()
	if n, err := restored.RestoreAll(bytes.NewReader(old)); err != nil || n != 1 {
		t.Fatalf("RestoreAll of a container naming query_cache = %d, %v", n, err)
	}
	re, _ := restored.Get("old")
	got, err := re.Query(Query{Algo: AlgoKCover, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIntSets(got.Sets, want.Sets) || got.EstimatedCoverage != want.EstimatedCoverage {
		t.Fatalf("restored answer %v (%v), want %v (%v)", got.Sets, got.EstimatedCoverage, want.Sets, want.EstimatedCoverage)
	}
}

// TestQueryResultIsPrivate pins the aliasing contract: mutating a
// returned Sets slice must not corrupt the cached entry other callers
// receive.
func TestQueryResultIsPrivate(t *testing.T) {
	inst := workload.Uniform(20, 800, 0.1, 21)
	e, err := New(testConfig(20, 800, 3, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingestAll(t, e, inst.G, 200, 2)

	q := Query{Algo: AlgoKCover, K: 3}
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), first.Sets...)
	for i := range first.Sets {
		first.Sets[i] = -1 // caller scribbles on its result
	}
	second, err := e.Query(q) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	for i := range second.Sets {
		if second.Sets[i] != want[i] {
			t.Fatalf("cached answer corrupted by caller mutation: %v, want %v", second.Sets, want)
		}
	}
	second.Sets[0] = -2
	third, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if third.Sets[0] != want[0] {
		t.Fatalf("cache hit handed out a shared slice: %v, want %v", third.Sets, want)
	}
}
