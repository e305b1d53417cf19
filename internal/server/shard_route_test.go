package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ownerMode wraps a mode so every shard state records which elements
// reach it. Its states publish no bar (as noBarMode's), so every routed
// record reaches a state, and keep deleteApplier where the wrapped
// state has it.
type ownerMode struct {
	Mode
	mu     sync.Mutex
	next   int               // index of the next shard state built
	owners map[uint32]uint64 // element → bitmask of the shards it reached
}

type ownerState struct {
	ShardState
	m     *ownerMode
	shard int
}

// ownerDeleteState is an ownerState over a deleteApplier.
type ownerDeleteState struct{ ownerState }

func (ownerDeleteState) appliesDeletes() {}

func (m *ownerMode) NewShardState() (ShardState, error) {
	st, err := m.Mode.NewShardState()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	rec := ownerState{ShardState: st, m: m, shard: m.next}
	m.next++
	m.mu.Unlock()
	if _, ok := st.(deleteApplier); ok {
		return ownerDeleteState{rec}, nil
	}
	return rec, nil
}

func (s ownerState) AddEdges(recs []bipartite.Edge) {
	s.m.mu.Lock()
	for _, r := range recs {
		s.m.owners[r.Elem] |= 1 << s.shard
	}
	s.m.mu.Unlock()
	s.ShardState.AddEdges(recs)
}

// ownerRecords is a seeded record stream over 40 sets and 3 000
// elements, with deletes of earlier inserts on a deleting mode.
func ownerRecords(seed uint64, n int, deletes bool) [][]bipartite.Edge {
	rng := rand.New(rand.NewPCG(seed, 3))
	var (
		live    []bipartite.Edge
		batches [][]bipartite.Edge
	)
	for sent := 0; sent < n; {
		batch := make([]bipartite.Edge, min(n-sent, 1+rng.IntN(1200)))
		for i := range batch {
			if deletes && len(live) > 0 && rng.IntN(4) == 0 {
				j := rng.IntN(len(live))
				batch[i] = bipartite.Edge{Set: live[j].Set | bipartite.OpDeleteBit, Elem: live[j].Elem}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			batch[i] = bipartite.Edge{Set: uint32(rng.IntN(40)), Elem: uint32(rng.IntN(3000))}
			live = append(live, batch[i])
		}
		batches = append(batches, batch)
		sent += len(batch)
	}
	return batches
}

// TestShardsOwnElements: the router sends every record of an element —
// insert or delete — to the one shard its priority picks, on every mode
// and shard count, and any such partition merges to the 1-shard engine's
// snapshot bytes, with the sketch engine's bar drop on.
func TestShardsOwnElements(t *testing.T) {
	for _, name := range []ModeName{ModeSketch, ModeWeighted, ModeDynamic} {
		cfg := Config{NumSets: 40, K: 5, Eps: 0.5, Seed: 11, NumElems: 3000, EdgeBudget: 300, Engine: name}
		if name == ModeWeighted {
			table := make([]float64, 3000)
			for i := range table {
				table[i] = float64(1 + i%7*i%5)
			}
			cfg.Engine, cfg.Weights = "", &WeightConfig{Table: table, Default: 1}
		}
		batches := ownerRecords(uint64(len(name)), 9000, name == ModeDynamic)
		// snapshotBytes ingests batches into e, refreshing along the way,
		// and returns the last snapshot's state bytes.
		snapshotBytes := func(t *testing.T, e *Engine) []byte {
			t.Helper()
			defer e.Close()
			for i, batch := range batches {
				if _, err := e.IngestRecords(batch); err != nil {
					t.Fatal(err)
				}
				if i%3 == 2 {
					if _, err := e.Refresh(); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap, err := e.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := snap.WriteState(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		var want []byte
		for _, shards := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				c := cfg
				c.Shards = shards
				e, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				got := snapshotBytes(t, e)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatal("merged snapshot bytes differ from the 1-shard engine's")
				}

				mode, err := c.EngineMode()
				if err != nil {
					t.Fatal(err)
				}
				om := &ownerMode{Mode: mode, owners: map[uint32]uint64{}}
				e, err = newEngine(c, om)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshotBytes(t, e); !bytes.Equal(got, want) {
					t.Fatal("merged snapshot bytes without the bar drop differ from the 1-shard engine's")
				}
				var reached uint64
				for elem, mask := range om.owners {
					if mask&(mask-1) != 0 {
						t.Fatalf("element %d reached shards %b", elem, mask)
					}
					reached |= mask
				}
				if reached != 1<<shards-1 {
					t.Fatalf("records reached shards %b of %d", reached, shards)
				}
			})
		}
	}
}

// zipfEdges is the benchmark's instance shape — a Zipf of 1 000 sets
// over 100 000 elements, 529 009 edges — in shuffled order.
func zipfEdges() []bipartite.Edge {
	inst := workload.Zipf(1000, 100_000, 50_000, 0.9, 0.7, 1)
	return stream.Drain(stream.Shuffled(inst.G, 2))
}

// zipfEngine is a sketch engine of the given shard count that has
// ingested edges in 8 192-edge batches.
func zipfEngine(tb testing.TB, shards int, edges []bipartite.Edge) *Engine {
	tb.Helper()
	e, err := New(Config{NumSets: 1000, K: 10, Eps: 0.5, Seed: 7, NumElems: 100_000, EdgeBudget: 20_000, Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < len(edges); lo += 8192 {
		if _, err := e.Ingest(edges[lo:min(lo+8192, len(edges))]); err != nil {
			e.Close()
			tb.Fatal(err)
		}
	}
	return e
}

// TestShardBalanceOnZipf pins the shard load of element routing on the
// benchmark's instance shape (zipfEdges): the busiest shard's EdgesSeen
// stays within 10 % of the mean.
// A popular element loads one shard with all of its edges, so this is
// the number that would move if the priority's low bits stopped being
// close to uniform.
func TestShardBalanceOnZipf(t *testing.T) {
	edges := zipfEdges()
	for _, shards := range []int{2, 4, 8} {
		e := zipfEngine(t, shards, edges)
		st, err := e.Stats()
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		var most, sum int64
		for _, s := range st.ShardStats {
			most = max(most, s.EdgesSeen)
			sum += s.EdgesSeen
		}
		if sum != int64(len(edges)) {
			t.Fatalf("shards=%d: shards saw %d edges of %d", shards, sum, len(edges))
		}
		ratio := float64(most) * float64(shards) / float64(sum)
		t.Logf("shards=%d: busiest shard / mean = %.3f", shards, ratio)
		if ratio > 1.10 {
			t.Fatalf("shards=%d: busiest shard saw %.3f× the mean", shards, ratio)
		}
	}
}

// BenchmarkIngestRoute measures Engine.route alone, in ns per record: one
// priority per record picks the shard and meets that shard's published
// bar. The engine is a converged 4-shard sketch engine on a Zipf stream,
// so most records stop at the bar; the sub-batches go straight back to
// the pool instead of to the shards.
func BenchmarkIngestRoute(b *testing.B) {
	edges := zipfEdges()
	e := zipfEngine(b, 4, edges)
	defer e.Close()
	const batch = 8192
	if _, err := e.Stats(); err != nil { // every shard has published its bar
		b.Fatal(err)
	}
	recycle := func(_ int, sb *subBatch) { e.pool.Put(sb) }
	var dropped int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * batch % (len(edges) - batch)
		dropped += e.route(edges[lo:lo+batch], recycle)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
	b.ReportMetric(float64(dropped)/float64(b.N*batch), "dropped/record")
}
