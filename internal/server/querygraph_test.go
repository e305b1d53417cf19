package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/workload"
)

// foldCase is an instance the graph-chain tests stream, epoch after epoch
// over fresh element ids so that elements keep arriving and the bar keeps
// falling, at a budget a few of its epochs overflow.
type foldCase struct {
	name string
	inst workload.Instance
	cfg  Config
}

func foldCases() []foldCase {
	cfg := func(n, budget int) Config {
		return Config{NumSets: n, K: 8, Eps: 0.5, Seed: 11, EdgeBudget: budget}
	}
	return []foldCase{
		{"zipf", workload.Zipf(60, 3000, 300, 0.9, 0.7, 5), cfg(60, 900)},
		{"planted", workload.PlantedKCover(60, 3000, 8, 0.7, 60, 5), cfg(60, 900)},
		// Dense: the bitset engine backs the greedy runs (checked below).
		{"largesets", workload.LargeSets(40, 1200, 0.3, 5), cfg(40, 3000)},
	}
}

// foldStream yields the case's edges in a seeded order, epoch after epoch,
// the element ids of epoch i shifted by i·m.
type foldStream struct {
	edges []bipartite.Edge
	m     int
	next  int
}

func newFoldStream(fc foldCase, seed uint64) *foldStream {
	edges := fc.inst.G.Edges(nil)
	rng := rand.New(rand.NewPCG(seed, 77))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return &foldStream{edges: edges, m: fc.inst.G.NumElems()}
}

func (s *foldStream) batch(n int) []bipartite.Edge {
	out := make([]bipartite.Edge, n)
	for i := range out {
		e := s.edges[s.next%len(s.edges)]
		e.Elem += uint32(s.next / len(s.edges) * s.m)
		out[i] = e
		s.next++
	}
	return out
}

// foldQueries are the queries every check asks: kcover at k ∈ {1, 5, 20,
// K}, outliers at two λ and the full greedy.
func foldQueries(cfg Config) []Query {
	return []Query{
		{Algo: AlgoKCover, K: 1}, {Algo: AlgoKCover, K: 5}, {Algo: AlgoKCover, K: 20}, {Algo: AlgoKCover, K: cfg.K},
		{Algo: AlgoOutliers, Lambda: 0.1}, {Algo: AlgoOutliers, Lambda: 0.35},
		{Algo: AlgoGreedy},
	}
}

// fullBuildRun answers q with a fresh greedy run on g, the way executeQuery
// answers it from a snapshot's run.
func fullBuildRun(g *bipartite.Graph, q Query) greedy.Result {
	r := greedy.NewRun(g)
	var res greedy.Result
	switch q.Algo {
	case AlgoKCover:
		res, _ = r.MaxCover(q.K)
	case AlgoOutliers:
		res, _ = r.PartialCover(int(math.Ceil(float64(r.CoveredElems()) * (1 - q.Lambda) * (1 - 1e-12))))
	case AlgoGreedy:
		res, _ = r.SetCover()
	}
	return res
}

// checkAgainstFullBuild asks every query of foldQueries on snap and holds
// each answer — its sets, sketch coverage, estimate and the run's gains —
// to a greedy run on View.Graph of the same state, and the run's covered
// element count to the state's element count. It returns snap's graph.
func checkAgainstFullBuild(t *testing.T, e *Engine, snap *Snapshot, where string) *bipartite.Graph {
	t.Helper()
	v := snap.State().(*core.View)
	ref, _, err := v.Graph()
	if err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	for _, q := range foldQueries(e.cfg) {
		got, err := e.QuerySnapshot(snap, q)
		if err != nil {
			t.Fatalf("%s: %+v: %v", where, q, err)
		}
		want := fullBuildRun(ref, q)
		if !slices.Equal(got.Sets, want.Sets) || got.SketchCoverage != want.Covered ||
			got.EstimatedCoverage != safeEstimate(want.Covered, st.PStar) {
			t.Fatalf("%s: %+v: answered %v covering %d (estimate %v), the full build's greedy %v covering %d",
				where, q, got.Sets, got.SketchCoverage, got.EstimatedCoverage, want.Sets, want.Covered)
		}
		// The same rule asked of the snapshot's run again reads its stored
		// prefix: the gains the answer was made of.
		var again greedy.Result
		switch q.Algo {
		case AlgoKCover:
			again, _ = snap.run.MaxCover(q.K)
		case AlgoOutliers:
			again, _ = snap.run.PartialCover(int(math.Ceil(float64(snap.run.CoveredElems()) * (1 - q.Lambda) * (1 - 1e-12))))
		case AlgoGreedy:
			again, _ = snap.run.SetCover()
		}
		if !slices.Equal(again.Gains, want.Gains) {
			t.Fatalf("%s: %+v: gains %v, the full build's %v", where, q, again.Gains, want.Gains)
		}
	}
	if got := snap.run.CoveredElems(); got != st.ElementsKept {
		t.Fatalf("%s: the run covers up to %d elements, the state holds %d", where, got, st.ElementsKept)
	}
	g, err := snap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFoldedGraphAnswersEqualTheFullBuild runs seeded schedules of ingest,
// Refresh, Checkpoint, a failed merge and close + restore on Zipf, planted
// and dense instances at 1, 2 and 3 shards, querying every published
// snapshot. Each answer equals a greedy run on View.Graph of the same state
// pick for pick, so absent slots reach no answer; the schedule folds the
// chain forward, compacts it at least twice, and on the dense instance
// folds graphs that the bitset engine evaluates.
func TestFoldedGraphAnswersEqualTheFullBuild(t *testing.T) {
	for _, fc := range foldCases() {
		for _, shards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", fc.name, shards), func(t *testing.T) {
				cfg := fc.cfg
				cfg.Shards = shards
				foldSchedule(t, fc, cfg, uint64(shards))
			})
		}
	}
}

func foldSchedule(t *testing.T, fc foldCase, cfg Config, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xf01d))
	in := newFoldStream(fc, seed)
	probe := newProbeMode(t, cfg)
	e, err := newEngine(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	var (
		compactions, folds, bitsetFolds int
		restarts, failures              int
	)
	retire := func() { folds += int(e.Counters().GraphFolds) }
	for i := 0; i < 300; i++ {
		var snap *Snapshot
		builds := e.Counters().GraphBuilds // a refresh builds only to compact
		switch p := rng.IntN(100); {
		case p < 45:
			if _, err := e.Ingest(in.batch(100 + rng.IntN(300))); err != nil {
				t.Fatal(err)
			}
			continue
		case p < 80:
			snap, err = e.Refresh()
		case p < 93:
			snap, err = e.Checkpoint()
		case p < 96:
			if _, err := e.Ingest(in.batch(50)); err != nil {
				t.Fatal(err)
			}
			probe.mu.Lock()
			probe.failBefore = 1
			probe.mu.Unlock()
			if _, err := e.Refresh(); !errors.Is(err, errProbeMerge) {
				t.Fatalf("step %d: the failing refresh returned %v", i, err)
			}
			failures++
			continue
		default:
			if i < 60 || restarts == 2 {
				continue // let chains grow
			}
			var buf bytes.Buffer
			if _, err := e.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			retire()
			e.Close()
			restoreCfg, err := ReadRestore(cfg, &buf)
			if err != nil {
				t.Fatal(err)
			}
			probe = newProbeMode(t, cfg)
			if e, err = newEngine(restoreCfg, probe); err != nil {
				t.Fatal(err)
			}
			restarts++
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		compactions += int(e.Counters().GraphBuilds - builds)
		folded := snap.folded != nil
		g := checkAgainstFullBuild(t, e, snap, fmt.Sprintf("step %d (seq %d, folded %v)", i, snap.Seq, folded))
		if _, ok := g.NewEvaluator().(*bipartite.BitsetCoverer); ok && folded {
			bitsetFolds++
		}
	}
	retire()
	if folds == 0 || compactions < 2 || restarts == 0 || failures == 0 {
		t.Fatalf("the schedule ran %d folds, %d compactions, %d restarts, %d failed merges; want folds, two compactions and one of each other",
			folds, compactions, restarts, failures)
	}
	if fc.name == "largesets" && bitsetFolds == 0 {
		t.Fatal("no folded graph was evaluated by the bitset engine")
	}
}

// TestDeltaScheduleFoldsEveryGraph: on a schedule of ingest, refresh and
// query, the first query builds the graph, and every refresh after it
// carries the graph forward — a fold, or a full build only when the fold
// compacts — so every later query finds its graph built.
func TestDeltaScheduleFoldsEveryGraph(t *testing.T) {
	fc := foldCases()[0]
	cfg := fc.cfg
	cfg.Shards = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	in := newFoldStream(fc, 1)
	const rounds = 40
	var compactions int64 // builds inside a refresh
	for i := 0; i < rounds; i++ {
		if _, err := e.Ingest(in.batch(300)); err != nil {
			t.Fatal(err)
		}
		before := e.Counters()
		snap, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		after := e.Counters()
		compactions += after.GraphBuilds - before.GraphBuilds
		if (snap.folded != nil) != (i > 0) || after.GraphFolds+after.GraphBuilds-before.GraphFolds-before.GraphBuilds != min(int64(i), 1) {
			t.Fatalf("refresh %d: folded graph %v, counters %+v then %+v", i, snap.folded != nil, before, after)
		}
		if _, err := e.QuerySnapshot(snap, Query{Algo: AlgoKCover, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	c := e.Counters()
	if c.GraphBuilds != 1+compactions || c.GraphFolds != rounds-1-compactions || compactions == 0 {
		t.Fatalf("%d refreshes: %d builds, %d folds, %d compactions; want 1 build plus the compactions, the rest folds",
			rounds, c.GraphBuilds, c.GraphFolds, compactions)
	}
	if c.MaterializeNanos <= 0 {
		t.Fatal("no materialization time counted")
	}
}

// TestOldSnapshotsQueryWhileTheChainFolds: goroutines run fresh greedy runs
// on the graphs of older snapshots while later refreshes append to the
// lists those graphs share and compact the chain. Every answer equals the
// one computed when the snapshot was new. Run with -race.
func TestOldSnapshotsQueryWhileTheChainFolds(t *testing.T) {
	for _, fc := range foldCases() {
		t.Run(fc.name, func(t *testing.T) {
			cfg := fc.cfg
			cfg.Shards = 2
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			in := newFoldStream(fc, 2)

			type published struct {
				g    *bipartite.Graph
				want [][]int // MaxCover sets for k = 1..8
			}
			var (
				mu    sync.Mutex
				snaps []published
				done  = make(chan struct{})
				wg    sync.WaitGroup
			)
			stop := sync.OnceFunc(func() { close(done); wg.Wait() })
			defer stop() // a Fatal below must not leave the readers running
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; ; n++ {
						select {
						case <-done:
							return
						default:
						}
						mu.Lock()
						if len(snaps) == 0 {
							mu.Unlock()
							continue
						}
						p := snaps[(n*7+w)%len(snaps)]
						mu.Unlock()
						k := 1 + n%len(p.want)
						if got := greedy.MaxCover(p.g, k); !slices.Equal(got.Sets, p.want[k-1]) {
							t.Errorf("k=%d on an old snapshot: %v, when new %v", k, got.Sets, p.want[k-1])
							return
						}
					}
				}()
			}
			var compactions int64 // builds inside a refresh
			for i := 0; i < 40; i++ {
				if _, err := e.Ingest(in.batch(300)); err != nil {
					t.Fatal(err)
				}
				builds := e.Counters().GraphBuilds
				snap, err := e.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				compactions += e.Counters().GraphBuilds - builds
				g, err := snap.Graph()
				if err != nil {
					t.Fatal(err)
				}
				p := published{g: g}
				for k := 1; k <= 8; k++ {
					p.want = append(p.want, greedy.MaxCover(g, k).Sets)
				}
				mu.Lock()
				snaps = append(snaps, p)
				mu.Unlock()
			}
			stop()
			if compactions == 0 || e.Counters().GraphFolds == 0 {
				t.Fatalf("%d folds, %d compactions; want both", e.Counters().GraphFolds, compactions)
			}
		})
	}
}
