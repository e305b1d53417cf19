package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// probeMode wraps the sketch mode for the delta-cut tests. Its shard
// states keep, beside every cut they answer a freeze request with, a full
// Freeze taken at the same point of the mailbox — the delta-free reference
// a publish is compared against — and its MergeStates can be told to fail,
// before the real merge runs or after it has succeeded, which is the event
// after which a shard must fall back to a full cut.
type probeMode struct {
	Mode

	mu         sync.Mutex
	shards     []*probeShard // in NewShardState (= shard) order
	failBefore int           // this many coming merges fail without running
	failAfter  int           // ... and this many fail once the real merge is done
}

type probeShard struct {
	ShardState
	m    *probeMode
	full *core.View // the shard's whole state at its last cut; under m.mu
}

var errProbeMerge = errors.New("probe: merge failed on request")

func newProbeMode(t *testing.T, cfg Config) *probeMode {
	t.Helper()
	mode, err := cfg.EngineMode()
	if err != nil {
		t.Fatal(err)
	}
	return &probeMode{Mode: mode}
}

func (m *probeMode) NewShardState() (ShardState, error) {
	st, err := m.Mode.NewShardState()
	if err != nil {
		return nil, err
	}
	ps := &probeShard{ShardState: st, m: m}
	m.shards = append(m.shards, ps)
	return ps, nil
}

func (s *probeShard) Freeze(published FrozenState) FrozenState {
	cut := s.ShardState.Freeze(published)
	full := s.ShardState.(*sketchState).sk.Freeze()
	s.m.mu.Lock()
	s.full = full
	s.m.mu.Unlock()
	return cut
}

func (m *probeMode) MergeStates(states []FrozenState, edges int64) (FrozenState, error) {
	m.mu.Lock()
	before, after := m.failBefore > 0, m.failBefore == 0 && m.failAfter > 0
	if before {
		m.failBefore--
	} else if after {
		m.failAfter--
	}
	m.mu.Unlock()
	if before {
		return nil, errProbeMerge
	}
	merged, err := m.Mode.MergeStates(states, edges)
	if err == nil && after {
		return nil, errProbeMerge
	}
	return merged, err
}

// fullMerge is core.MergeViews over the full freezes the shards took at
// their last cuts: what the refresh published before shards cut deltas.
func (m *probeMode) fullMerge(t *testing.T, params core.Params, edges int64) []byte {
	t.Helper()
	m.mu.Lock()
	views := make([]*core.View, len(m.shards))
	for i, sh := range m.shards {
		views[i] = sh.full
	}
	m.mu.Unlock()
	merged, err := core.MergeViews(params, edges, views...)
	if err != nil {
		t.Fatal(err)
	}
	return writeToBytes(t, merged)
}

func writeToBytes(t *testing.T, st FrozenState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deltaConfig sizes the delta tests' engines: a budget a few hundred
// random edges fill, and a degree cap that binds (K = 500 puts it at 3) or
// never does (K = 2 puts it at NumSets).
func deltaConfig(t *testing.T, shards int, capBinds bool) Config {
	t.Helper()
	cfg := Config{NumSets: 40, K: 2, Eps: 0.9, Seed: 21, NumElems: 6000, EdgeBudget: 300, Shards: shards}
	want := cfg.NumSets
	if capBinds {
		cfg.K, want = 500, 3
	}
	if got := cfg.Params().EffectiveDegreeCap(); got != want {
		t.Fatalf("degree cap %d, want %d", got, want)
	}
	return cfg
}

// randomBatch draws up to max edges, a quarter of them re-sent from sent
// (which it extends).
func randomBatch(rng *rand.Rand, cfg Config, sent *[]bipartite.Edge, max int) []bipartite.Edge {
	batch := make([]bipartite.Edge, 0, max)
	for n := rng.IntN(max + 1); n > 0; n-- {
		e := bipartite.Edge{Set: uint32(rng.IntN(cfg.NumSets)), Elem: uint32(rng.IntN(cfg.NumElems))}
		if len(*sent) > 0 && rng.IntN(4) == 0 {
			e = (*sent)[rng.IntN(len(*sent))]
		}
		*sent = append(*sent, e)
		batch = append(batch, e)
	}
	return batch
}

// TestDeltaRefreshEqualsFullRefresh runs random schedules of Ingest,
// Refresh, Checkpoint, Stats, WriteSnapshot, a merge that fails, and close +
// restore (+ WAL replay where configured) against engines of 1, 2 and 4
// shards, with a binding and a non-binding degree cap. After every publish
// the state bytes equal core.MergeViews over a full Freeze of every shard
// taken at the same cut, and the bytes of a one-shard engine fed the same
// edges, whether the cap binds or not. Every build's cuts are of the
// expected kind: full on an engine's first build and on the build after a
// failed one, delta otherwise, so full cuts total shards × (1 + restarts +
// failed merges).
func TestDeltaRefreshEqualsFullRefresh(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, capBinds := range []bool{false, true} {
			for _, durable := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("shards=%d/capBinds=%v/wal=%v/seed=%d", shards, capBinds, durable, seed)
					t.Run(name, func(t *testing.T) {
						runDeltaSchedule(t, deltaConfig(t, shards, capBinds), durable, seed)
					})
				}
			}
		}
	}
}

func runDeltaSchedule(t *testing.T, cfg Config, durable bool, seed uint64) {
	const ops = 80
	rng := rand.New(rand.NewPCG(seed, uint64(cfg.Shards)))
	params := cfg.Params()
	if durable {
		cfg.WAL = &WALConfig{Dir: t.TempDir(), Fsync: "off"}
	}

	refCfg := cfg
	refCfg.Shards, refCfg.WAL = 1, nil
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	probe := newProbeMode(t, cfg)
	e, err := newEngine(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()

	var (
		sent       []bipartite.Edge
		saved      []byte // the last WriteSnapshot bytes, what a restart restores
		published  bool   // this engine instance has published
		lastFailed bool   // its last build failed
		wantFull   int64  // full cuts this instance should have taken
		deltas     int64  // delta cuts over all instances
	)
	// build runs one snapshot-building call and holds it to the contract.
	build := func(op string, call func() (*Snapshot, error)) {
		t.Helper()
		full0, delta0 := e.fullCuts.Load(), e.deltaCuts.Load()
		builds0 := e.refreshes.Load() + e.refreshErrors.Load()
		snap, err := call()
		if e.refreshes.Load()+e.refreshErrors.Load() == builds0 {
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			return // idle skip: no shard was asked for a cut
		}
		full, delta := e.fullCuts.Load()-full0, e.deltaCuts.Load()-delta0
		if !published || lastFailed {
			wantFull += int64(cfg.Shards)
			if full != int64(cfg.Shards) || delta != 0 {
				t.Fatalf("%s (published %v, last build failed %v): %d full / %d delta cuts, want %d full",
					op, published, lastFailed, full, delta, cfg.Shards)
			}
		} else if full != 0 || delta != int64(cfg.Shards) {
			t.Fatalf("%s on a published engine: %d full / %d delta cuts, want %d delta", op, full, delta, cfg.Shards)
		}
		deltas += delta
		if lastFailed = err != nil; lastFailed {
			if !errors.Is(err, errProbeMerge) {
				t.Fatalf("%s: %v", op, err)
			}
			return
		}
		published = true
		got := writeToBytes(t, snap.State())
		if want := probe.fullMerge(t, params, snap.IngestedEdges); !bytes.Equal(got, want) {
			t.Fatalf("%s: published state differs from MergeViews over full freezes (%d vs %d bytes)", op, len(got), len(want))
		}
		refSnap, err := ref.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if want := writeToBytes(t, refSnap.State()); !bytes.Equal(got, want) {
			t.Fatalf("%s: published state differs from the one-shard engine's (%d vs %d bytes)", op, len(got), len(want))
		}
	}
	writeSnapshot := func() {
		t.Helper()
		var buf bytes.Buffer
		build("WriteSnapshot", func() (*Snapshot, error) { return e.WriteSnapshot(&buf) })
		if !lastFailed {
			saved = buf.Bytes()
		}
	}

	restarts, failures := 0, 0
	for i := 0; i < ops; i++ {
		p := rng.IntN(100)
		switch i { // whatever the seed draws, every schedule has one of each
		case ops / 3:
			p = 0 // ingest, so that the failing refresh after it has something to merge
		case ops/3 + 1:
			p = 90
		case 2 * ops / 3:
			p = 99
		}
		switch {
		case p < 40:
			batch := randomBatch(rng, cfg, &sent, 300)
			if _, err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		case p < 60:
			build("Refresh", e.Refresh)
		case p < 70:
			build("Checkpoint", e.Checkpoint)
		case p < 78:
			if _, err := e.Stats(); err != nil {
				t.Fatal(err)
			}
		case p < 86:
			writeSnapshot()
		case p < 93:
			probe.mu.Lock()
			if rng.IntN(2) == 0 {
				probe.failBefore = 1
			} else {
				probe.failAfter = 1
			}
			probe.mu.Unlock()
			build("failing Refresh", e.Refresh)
			if lastFailed {
				failures++
			}
			probe.mu.Lock()
			probe.failBefore, probe.failAfter = 0, 0 // an idle skip never merged
			probe.mu.Unlock()
		default:
			if !durable {
				// Nothing replays what a stale file misses: save everything.
				writeSnapshot()
				if lastFailed {
					continue
				}
			}
			if got := e.fullCuts.Load(); got != wantFull {
				t.Fatalf("engine instance took %d full cuts, want %d", got, wantFull)
			}
			e.Close()
			restoreCfg := cfg
			if saved != nil {
				if restoreCfg, err = ReadRestore(cfg, bytes.NewReader(saved)); err != nil {
					t.Fatal(err)
				}
			}
			probe = newProbeMode(t, cfg)
			if e, err = newEngine(restoreCfg, probe); err != nil {
				t.Fatal(err)
			}
			published, lastFailed, wantFull = false, false, 0
			restarts++
		}
	}
	build("final Refresh", e.Refresh)
	if got := e.fullCuts.Load(); got != wantFull {
		t.Fatalf("last engine instance took %d full cuts, want %d", got, wantFull)
	}
	if deltas == 0 || restarts == 0 || failures == 0 {
		t.Fatalf("schedule ran %d delta cuts, %d restarts, %d failed merges; want some of each", deltas, restarts, failures)
	}
}

// TestDeltaCutFallsBackAfterFailedMerge: a merge that fails between two
// good refreshes — before the real merge ran, or after it succeeded and
// something later in the build failed — has taken the shards' cuts and
// published nothing. The next publish is byte for byte the never-failed
// engine's, because the shards answer it with full cuts, and the failure
// is counted once although no ticker ran it.
func TestDeltaCutFallsBackAfterFailedMerge(t *testing.T) {
	for _, after := range []bool{false, true} {
		t.Run(fmt.Sprintf("failAfterMerge=%v", after), func(t *testing.T) {
			cfg := deltaConfig(t, 2, false)
			probe := newProbeMode(t, cfg)
			e, err := newEngine(cfg, probe)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			twin, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()

			rng := rand.New(rand.NewPCG(9, 9))
			var sent []bipartite.Edge
			var last []byte
			for round := 0; round < 3; round++ {
				batch := randomBatch(rng, cfg, &sent, 400)
				for _, eng := range []*Engine{e, twin} {
					if _, err := eng.Ingest(batch); err != nil {
						t.Fatal(err)
					}
				}
				want, err := twin.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				wantBytes := writeToBytes(t, want.State())
				if bytes.Equal(wantBytes, last) {
					t.Fatalf("round %d changed nothing; the test needs every round to matter", round)
				}
				last = wantBytes
				if round == 1 {
					probe.mu.Lock()
					probe.failBefore, probe.failAfter = 1, 0
					if after {
						probe.failBefore, probe.failAfter = 0, 1
					}
					probe.mu.Unlock()
					if _, err := e.Refresh(); !errors.Is(err, errProbeMerge) {
						t.Fatalf("failing refresh returned %v", err)
					}
					continue
				}
				got, err := e.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(writeToBytes(t, got.State()), wantBytes) {
					t.Fatalf("round %d: published state differs from the never-failed engine's", round)
				}
			}
			if got := e.RefreshErrors(); got != 1 {
				t.Fatalf("refresh errors = %d, want 1", got)
			}
			// Rounds 0 and 2 cut in full, round 1's delta was lost with its merge.
			if full, delta := e.fullCuts.Load(), e.deltaCuts.Load(); full != 4 || delta != 2 {
				t.Fatalf("failed engine: %d full / %d delta cuts, want 4 / 2", full, delta)
			}
			if full, delta := twin.fullCuts.Load(), twin.deltaCuts.Load(); full != 2 || delta != 4 {
				t.Fatalf("never-failed engine: %d full / %d delta cuts, want 2 / 4", full, delta)
			}
		})
	}
}

// TestDeltaCutSharesNoStorage: a delta cut, the view merged from it and
// the graph over that view keep their contents while the shard that was
// cut keeps ingesting — first on one shard state by hand, then on a live
// engine whose ingest never pauses while deltas are merged, graphed,
// serialized and queried. Run with -race: a delta that aliased a slot's
// set list would be read by the coordinator while the shard appends.
func TestDeltaCutSharesNoStorage(t *testing.T) {
	cfg := deltaConfig(t, 2, false)
	rng := rand.New(rand.NewPCG(4, 4))
	var sent []bipartite.Edge

	t.Run("one shard by hand", func(t *testing.T) {
		mode, err := cfg.EngineMode()
		if err != nil {
			t.Fatal(err)
		}
		sh, err := mode.NewShardState()
		if err != nil {
			t.Fatal(err)
		}
		sh.AddEdges(randomBatch(rng, cfg, &sent, 400))
		published, err := mode.MergeStates([]FrozenState{sh.Freeze(nil)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh.AddEdges(randomBatch(rng, cfg, &sent, 400))
		cut := sh.Freeze(published).(*sketchCut)
		if cut.base != published || cut.Stats().ElementsKept == 0 {
			t.Fatalf("second cut: base %p (published %p), %d elements; want a non-empty delta", cut.base, published, cut.Stats().ElementsKept)
		}
		merged, err := mode.MergeStates([]FrozenState{cut}, 0)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := mode.Materialize(merged)
		if err != nil {
			t.Fatal(err)
		}
		cutBytes, mergedBytes, graphEdges := writeToBytes(t, cut), writeToBytes(t, merged), mat.graph.NumEdges()
		for i := 0; i < 20; i++ {
			sh.AddEdges(randomBatch(rng, cfg, &sent, 400))
		}
		if !bytes.Equal(writeToBytes(t, cut), cutBytes) || !bytes.Equal(writeToBytes(t, merged), mergedBytes) || mat.graph.NumEdges() != graphEdges {
			t.Fatal("later ingest shows through a delta cut, the view merged from it or its graph")
		}
	})

	t.Run("live engine", func(t *testing.T) {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		batches := make([][]bipartite.Edge, 400)
		for i := range batches {
			batches[i] = randomBatch(rng, cfg, &sent, 200)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Ingest(batches[i%len(batches)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		type held struct {
			snap  *Snapshot
			bytes []byte
		}
		var seen []held
		for round := 0; round < 40; round++ {
			// Each round refreshes over new edges: a starved ingest goroutine
			// (other test binaries share the machine under -race) would
			// otherwise leave every refresh after the first an idle skip.
			for last, deadline := e.IngestedEdges(), time.Now().Add(10*time.Second); e.IngestedEdges() == last && time.Now().Before(deadline); {
				time.Sleep(20 * time.Microsecond)
			}
			res, err := e.Query(Query{Algo: AlgoKCover, K: 3, Refresh: true})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if res.SnapshotSeq > snap.Seq {
				t.Fatalf("query answered from seq %d, published is %d", res.SnapshotSeq, snap.Seq)
			}
			seen = append(seen, held{snap, writeToBytes(t, snap.State())})
		}
		close(stop)
		wg.Wait()
		for _, h := range seen {
			if !bytes.Equal(writeToBytes(t, h.snap.State()), h.bytes) {
				t.Fatalf("snapshot seq %d serializes differently after more ingest", h.snap.Seq)
			}
		}
		if e.deltaCuts.Load() == 0 {
			t.Fatal("no refresh cut a delta")
		}
	})
}
