package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/greedy"
	"repro/internal/l0"
	"repro/internal/weighted"
)

// executorConfig is a small engine of the given mode whose sketch (and L0
// sample) subsamples: p* < 1 on the edges executorEdges generates.
func executorConfig(name ModeName) Config {
	cfg := Config{NumSets: 30, K: 4, Eps: 0.5, Seed: 21, NumElems: 2000, EdgeBudget: 150, Shards: 2, Engine: name}
	if name == ModeWeighted {
		table := make([]float64, 2000)
		for i := range table {
			table[i] = float64(1 + i%7*i%5)
		}
		cfg.Weights = &WeightConfig{Table: table, Default: 1}
	}
	return cfg
}

func executorEdges(seed uint64, n int) []bipartite.Edge {
	rng := rand.New(rand.NewPCG(seed, 77))
	edges := make([]bipartite.Edge, n)
	for i := range edges {
		edges[i] = bipartite.Edge{Set: uint32(rng.IntN(30)), Elem: uint32(rng.IntN(2000))}
	}
	return edges
}

// executorQueries lists the algos each mode serves, with a few k.
func executorQueries(name ModeName) []Query {
	var qs []Query
	for _, k := range []int{1, 3, 7} {
		qs = append(qs, Query{Algo: AlgoKCover, K: k})
		if name == ModeWeighted {
			qs = append(qs, Query{Algo: AlgoWeightedKCover, K: k})
		}
	}
	if name != ModeWeighted {
		qs = append(qs, Query{Algo: AlgoOutliers, Lambda: 0.2}, Query{Algo: AlgoOutliers, Lambda: 0.05}, Query{Algo: AlgoGreedy})
	}
	return qs
}

func executorEngine(t *testing.T, name ModeName, seed uint64) (*Engine, *Snapshot) {
	t.Helper()
	e, err := New(executorConfig(name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.Ingest(executorEdges(seed, 1500)); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	return e, snap
}

// TestQueryResultShapePerMode pins what a QueryResult says on each mode,
// on an engine snapshot and on a cluster-style view of two engines: the
// sketch and dynamic answers are the greedy of the snapshot's graph with
// the Lemma 2.2 estimate covered/p*, the weighted answer is
// weighted.MaxCover of the bank's scaled union, and the mode-specific
// fields (Engine; Weighted, WeightClasses) appear on their mode only.
func TestQueryResultShapePerMode(t *testing.T) {
	for _, name := range []ModeName{ModeSketch, ModeWeighted, ModeDynamic} {
		e1, s1 := executorEngine(t, name, 1)
		_, s2 := executorEngine(t, name, 2)
		view, err := MergeSnapshot(e1.EngineMode(), 1, s1.IngestedEdges+s2.IngestedEdges, []FrozenState{s1.State(), s2.State()})
		if err != nil {
			t.Fatal(err)
		}
		for _, on := range []struct {
			what string
			snap *Snapshot
		}{{"engine", s1}, {"view", view}} {
			snap := on.snap
			g, err := snap.Graph()
			if err != nil {
				t.Fatal(err)
			}
			st := snap.State().Stats()
			if st.PStar >= 1 || st.PStar <= 0 {
				t.Fatalf("%s %s: p* = %v, want a subsample", name, on.what, st.PStar)
			}
			for _, q := range executorQueries(name) {
				where := fmt.Sprintf("%s %s %s k=%d λ=%v", name, on.what, q.Algo, q.K, q.Lambda)
				res, err := e1.QuerySnapshot(snap, q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if res.Algo != q.Algo || res.SnapshotSeq != snap.Seq || res.SnapshotEdges != snap.IngestedEdges || res.PStar != st.PStar {
					t.Fatalf("%s: header %+v does not describe the snapshot", where, res)
				}
				if name == ModeWeighted {
					in, _, err := snap.Bank().Assemble()
					if err != nil {
						t.Fatal(err)
					}
					want := weighted.MaxCover(*in, q.K)
					if !slices.Equal(res.Sets, want.Sets) || res.SketchCoverage != want.CoveredElems || res.EstimatedCoverage != want.Covered {
						t.Fatalf("%s: answer %v/%d/%v, weighted.MaxCover says %v/%d/%v", where,
							res.Sets, res.SketchCoverage, res.EstimatedCoverage, want.Sets, want.CoveredElems, want.Covered)
					}
					if !res.Weighted || res.WeightClasses != snap.Bank().Classes() || res.WeightClasses == 0 || res.SampledElements != g.NumElems() || res.Engine != "" {
						t.Fatalf("%s: weighted fields %+v", where, res)
					}
					continue
				}
				var want greedy.Result
				switch q.Algo {
				case AlgoKCover:
					want = greedy.MaxCover(g, q.K)
				case AlgoOutliers:
					want = greedy.PartialCover(g, int(math.Ceil(float64(g.CoveredElems())*(1-q.Lambda)*(1-1e-12))))
				case AlgoGreedy:
					want = greedy.SetCover(g)
				}
				if !slices.Equal(res.Sets, want.Sets) || res.SketchCoverage != want.Covered {
					t.Fatalf("%s: answer %v/%d, greedy on the graph says %v/%d", where, res.Sets, res.SketchCoverage, want.Sets, want.Covered)
				}
				if res.EstimatedCoverage != float64(want.Covered)/st.PStar || res.SampledElements != st.ElementsKept {
					t.Fatalf("%s: estimate %v over %d sampled, want %v over %d", where,
						res.EstimatedCoverage, res.SampledElements, float64(want.Covered)/st.PStar, st.ElementsKept)
				}
				if res.Weighted || res.WeightClasses != 0 {
					t.Fatalf("%s: weighted fields set: %+v", where, res)
				}
				wantEngine := ModeName("")
				if name == ModeDynamic {
					wantEngine = ModeDynamic
				}
				if res.Engine != wantEngine {
					t.Fatalf("%s: Engine %q, want %q", where, res.Engine, wantEngine)
				}
			}
		}

		// The /query body: "engine" only on the dynamic mode.
		rec := httptest.NewRecorder()
		NewHTTPHandler(e1, HTTPOptions{}).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?algo=kcover&k=3", nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: /v1/query: %v (%s)", name, err, rec.Body.Bytes())
		}
		if _, has := body["engine"]; has != (name == ModeDynamic) {
			t.Fatalf("%s: /v1/query body %s: engine key present = %v", name, rec.Body.Bytes(), has)
		}
	}
}

// countingMode counts Materialize calls.
type countingMode struct {
	Mode
	n *atomic.Int64
}

func (m countingMode) Materialize(st FrozenState) (*materialized, error) {
	m.n.Add(1)
	return m.Mode.Materialize(st)
}

// TestQueriesShareOneRunPerMode: concurrent queries of every algo and
// mixed k against one snapshot per mode materialize it once, share its
// one greedy run, are all counted, and answer exactly what the same
// query asked again afterwards answers. Run with -race.
func TestQueriesShareOneRunPerMode(t *testing.T) {
	const workers = 8
	for _, name := range []ModeName{ModeSketch, ModeWeighted, ModeDynamic} {
		cfg := executorConfig(name)
		mode, err := cfg.EngineMode()
		if err != nil {
			t.Fatal(err)
		}
		var built atomic.Int64
		e, err := newEngine(cfg, countingMode{Mode: mode, n: &built})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Ingest(executorEdges(3, 1500)); err != nil {
			t.Fatal(err)
		}
		snap, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		qs := executorQueries(name)
		answers := make([][]*QueryResult, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker walks the queries from its own offset, so the
				// run is extended by whichever k comes first.
				for i := range qs {
					res, err := e.QuerySnapshot(snap, qs[(i+w)%len(qs)])
					if err != nil {
						t.Error(err)
						return
					}
					answers[w] = append(answers[w], res)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for w, got := range answers {
			for i, res := range got {
				again, err := e.QuerySnapshot(snap, qs[(i+w)%len(qs)])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("%s worker %d query %+v: %+v, asked again %+v", name, w, qs[(i+w)%len(qs)], res, again)
				}
			}
		}
		if n := built.Load(); n != 1 {
			t.Fatalf("%s: snapshot materialized %d times", name, n)
		}
		if got, want := e.Counters().Queries, int64(2*workers*len(qs)); got != want {
			t.Fatalf("%s: Counters().Queries = %d, want %d", name, got, want)
		}
	}
}

// TestDynamicOverloadKeepsLastSnapshot pins what a dynamic engine does
// when no L0 level decodes: the refresh fails with l0.ErrNoDecode and
// counts as a refresh error, the previous snapshot stays published and
// keeps answering, and once deletes bring the live edges back under a
// level's capacity the next refresh recovers them.
func TestDynamicOverloadKeepsLastSnapshot(t *testing.T) {
	cfg := Config{NumSets: 100, K: 2, Eps: 0.5, Seed: 4, Shards: 2, Engine: ModeDynamic}
	mode := dynamicMode{
		sketch: cfg.Params(),
		params: l0.SamplerParams{Levels: 1, Cells: 6},
		free:   new(sync.Pool),
	}
	e, err := newEngine(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Ingest([]bipartite.Edge{{Set: 0, Elem: 9}, {Set: 1, Elem: 9}}); err != nil {
		t.Fatal(err)
	}
	first, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 {
		t.Fatalf("first snapshot seq %d", first.Seq)
	}

	flood := make([]bipartite.Edge, 64)
	for i := range flood {
		flood[i] = bipartite.Edge{Set: uint32(i % 100), Elem: uint32(100 + i)}
	}
	if _, err := e.Ingest(flood); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Refresh(); !errors.Is(err, l0.ErrNoDecode) {
		t.Fatalf("overloaded refresh: err %v, want l0.ErrNoDecode", err)
	}
	if n := e.RefreshErrors(); n != 1 {
		t.Fatalf("RefreshErrors = %d, want 1", n)
	}
	// The failed merge recycled both private arrays, the second cut and the
	// sum it was added into (the race detector's sync.Pool drops Puts at
	// random, so only an upper bound holds there), and never the published
	// state's.
	free := drainFree(mode)
	if len(free) > 2 || (!raceEnabled && len(free) != 2) {
		t.Fatalf("%d arrays on the free list after the failed merge, want 2", len(free))
	}
	for _, sam := range free {
		if sam == first.State().(*dynamicState).sam {
			t.Fatal("the published state's array was recycled")
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 {
		t.Fatalf("published snapshot seq %d after the failed refresh, want 1", snap.Seq)
	}
	res, err := e.Query(Query{Algo: AlgoKCover, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotEdges != 2 || res.Engine != ModeDynamic || res.SnapshotSeq != 1 {
		t.Fatalf("query after the failed refresh: %+v, want the 2-edge snapshot 1", res)
	}

	if _, err := e.IngestOps(bipartite.Deletes(flood)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Refresh(); err != nil {
		t.Fatalf("refresh after the deletes: %v", err)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotKept != 2 || st.SnapshotElements != 1 || st.SnapshotPStar != 1 || st.RefreshErrors != 1 {
		t.Fatalf("after the deletes: %d kept edges, %d elements, p* %v, %d refresh errors; want 2, 1, 1, 1",
			st.SnapshotKept, st.SnapshotElements, st.SnapshotPStar, st.RefreshErrors)
	}
}
