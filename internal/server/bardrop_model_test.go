package server

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bipartite"
)

// noBarMode is a mode whose shard states publish no bar, so the engine
// routes every insert to its shard: the reference the router's bar drop
// must be invisible against. It reaches the engine through newEngine's
// mode parameter.
type noBarMode struct{ Mode }

// noBarState hides every method of the wrapped state but ShardState's;
// noBarDeletes keeps the deleteApplier marker of a state that has it.
type (
	noBarState   struct{ ShardState }
	noBarDeletes struct{ noBarState }
)

func (noBarDeletes) appliesDeletes() {}

func (m noBarMode) NewShardState() (ShardState, error) {
	st, err := m.Mode.NewShardState()
	if _, ok := st.(deleteApplier); ok {
		return noBarDeletes{noBarState{st}}, err
	}
	return noBarState{st}, err
}

// TestRouterBarDropIsInvisible is a seeded model test of the router's
// drop. Two durable engines take the same random schedule of Ingest,
// IngestOps, Refresh, Checkpoint, Stats, WriteSnapshot and close + reopen
// (restoring the last checkpoint file and replaying the WAL tail); one
// drops records above its shards' published bars, the other has the drop
// turned off. After every step both hold the same per-shard stats,
// published the same snapshot bytes, and logged the same WAL bytes — over
// shard counts 1, 2 and 4 and batches that route cuts into several
// sub-batches per shard. Sketch engines take insert-only ops, under degree
// caps that bind and caps that do not. Dynamic engines take random insert
// and delete batches, some retracting most of what is live, so the floor
// rises and the decoded level then comes back up to it; their bar is the
// floor's, and inserts and deletes stop at it alike. The drop must fire.
// A failure names its seed.
func TestRouterBarDropIsInvisible(t *testing.T) {
	const (
		numSets = 16
		steps   = 40
	)
	for _, shards := range []int{1, 2, 4} {
		for _, capBinds := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("shards=%d/capBinds=%v/seed=%d", shards, capBinds, seed)
				cfg := Config{NumSets: numSets, K: 4, Eps: 0.5, Seed: seed, EdgeBudget: 150, Shards: shards, QueueDepth: 4}
				// Config does not reach the degree cap; the mode carries it.
				params := cfg.Params()
				if capBinds {
					params.DegreeCap = 3
				}
				rng := rand.New(rand.NewPCG(seed, uint64(shards)))
				runBarDropModel(t, name, cfg, sketchMode{params: params}, rng, steps)
			}
		}
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("dynamic/shards=%d/seed=%d", shards, seed)
			cfg := Config{NumSets: numSets, K: 4, Eps: 0.5, Seed: seed, EdgeBudget: 48, Shards: shards, QueueDepth: 4, Engine: ModeDynamic}
			mode, err := cfg.EngineMode()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(seed, uint64(shards)))
			// More steps: only a refresh raises the floor, and a reopen
			// before the next checkpoint forgets it.
			runBarDropModel(t, name, cfg, mode, rng, 3*steps/2)
		}
	}
}

// modelEngine is one side of the bar-drop model: an engine, its WAL
// directory and checkpoint file, and how to (re)open it.
type modelEngine struct {
	e          *Engine
	mode       Mode
	cfg        Config
	checkpoint string
}

func (m *modelEngine) open(t *testing.T) {
	t.Helper()
	cfg := m.cfg
	if blob, err := os.ReadFile(m.checkpoint); err == nil {
		st, err := m.mode.ReadState(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		cfg.RestoreState = st
	}
	e, err := newEngine(cfg, m.mode)
	if err != nil {
		t.Fatal(err)
	}
	m.e = e
}

func runBarDropModel(t *testing.T, name string, cfg Config, mode Mode, rng *rand.Rand, steps int) {
	sides := [2]*modelEngine{}
	for i, md := range []Mode{mode, noBarMode{mode}} {
		dir := t.TempDir()
		c := cfg
		c.WAL = &WALConfig{Dir: filepath.Join(dir, "wal"), Fsync: "off"}
		sides[i] = &modelEngine{mode: md, cfg: c, checkpoint: filepath.Join(dir, "state.skch")}
		sides[i].open(t)
	}
	drop, ref := sides[0], sides[1]
	defer func() {
		drop.e.Close()
		ref.e.Close()
	}()
	var (
		sent    []bipartite.Edge
		live    []bipartite.Edge // dynamic: the live edges, one entry per copy
		dropped int64            // router drops, summed over the drop side's opens
	)
	dynamic := cfg.Engine == ModeDynamic
	randomBatch := func() []bipartite.Edge {
		// Every third batch is several times a sub-batch, so route splits a
		// shard's share at every shard count.
		n := rng.IntN(500)
		if rng.IntN(3) == 0 {
			n = rng.IntN(4 * subBatchBase)
		}
		edges := make([]bipartite.Edge, n)
		for i := range edges {
			// A dense corner of the element space gives some elements more
			// sets than a binding cap admits.
			elem := uint32(rng.IntN(4000))
			if rng.IntN(3) == 0 {
				elem = uint32(rng.IntN(200))
			}
			edges[i] = bipartite.Edge{Set: uint32(rng.IntN(cfg.NumSets)), Elem: elem}
			if len(sent) > 0 && rng.IntN(5) == 0 {
				edges[i] = sent[rng.IntN(len(sent))]
			}
		}
		sent = append(sent, edges...)
		if dynamic {
			live = append(live, edges...)
		}
		return edges
	}
	// randomOps is an insert batch; on a dynamic engine, beside retracting
	// live copies: usually a few, one time in four most of them.
	randomOps := func() []bipartite.Op {
		ops := bipartite.Inserts(randomBatch())
		if !dynamic {
			return ops
		}
		n := rng.IntN(len(live)/4 + 1)
		if rng.IntN(4) == 0 {
			n = len(live) * 4 / 5
		}
		for range n {
			i := rng.IntN(len(live))
			ops = append(ops, bipartite.Op{Kind: bipartite.OpDelete, Edge: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
	snapBytes := func(s *Snapshot) []byte {
		var buf bytes.Buffer
		if err := s.WriteState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for step := 0; step < steps; step++ {
		var (
			op    string
			snaps [2]*Snapshot
		)
		switch r := rng.IntN(20); {
		case r < 8:
			op = "Ingest"
			b := randomBatch()
			for _, s := range sides {
				if _, err := s.e.Ingest(b); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
			}
		case r < 12:
			op = "IngestOps"
			ops := randomOps()
			for _, s := range sides {
				if _, err := s.e.IngestOps(ops); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
			}
		case r < 14:
			op = "Refresh"
			for i, s := range sides {
				snap, err := s.e.Refresh()
				if err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				snaps[i] = snap
			}
		case r < 16:
			op = "Checkpoint"
			for i, s := range sides {
				snap, err := CheckpointEngine(s.e, s.checkpoint)
				if err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				snaps[i] = snap
			}
		case r < 17:
			op = "WriteSnapshot"
			var blobs [2]bytes.Buffer
			for i, s := range sides {
				snap, err := s.e.WriteSnapshot(&blobs[i])
				if err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				snaps[i] = snap
			}
			if !bytes.Equal(blobs[0].Bytes(), blobs[1].Bytes()) {
				t.Fatalf("%s step %d: WriteSnapshot bytes differ with the drop on", name, step)
			}
		case r < 18:
			op = "Stats"
		default:
			op = "reopen"
			dropped += drop.e.Counters().BarDrops
			for _, s := range sides {
				if err := s.e.Close(); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				s.open(t)
			}
		}
		if snaps[0] != nil {
			if snaps[0].IngestedEdges != snaps[1].IngestedEdges || !bytes.Equal(snapBytes(snaps[0]), snapBytes(snaps[1])) {
				t.Fatalf("%s step %d (%s): the published snapshot differs with the drop on", name, step, op)
			}
		}
		var stats [2]*Stats
		for i, s := range sides {
			st, err := s.e.Stats()
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			stats[i] = st
		}
		if !slices.Equal(stats[0].ShardStats, stats[1].ShardStats) || stats[0].IngestedEdges != stats[1].IngestedEdges {
			t.Fatalf("%s step %d (%s): shard stats %+v, with the drop off %+v", name, step, op, stats[0].ShardStats, stats[1].ShardStats)
		}
		if ref.e.Counters().BarDrops != 0 {
			t.Fatalf("%s step %d (%s): the engine with the drop off dropped at its router", name, step, op)
		}
		if !maps.EqualFunc(dirFiles(t, drop.cfg.WAL.Dir), dirFiles(t, ref.cfg.WAL.Dir), bytes.Equal) {
			t.Fatalf("%s step %d (%s): the WAL differs with the drop on", name, step, op)
		}
	}
	if dropped += drop.e.Counters().BarDrops; dropped == 0 {
		t.Fatalf("%s: the router never dropped a record; the model tests nothing", name)
	}
}

// dirFiles reads every file of a directory.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, en := range entries {
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[en.Name()] = b
	}
	return out
}
