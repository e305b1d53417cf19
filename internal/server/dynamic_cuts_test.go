package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/l0"
	"repro/internal/weighted"
)

func dynCutsConfig(shards int) Config {
	return Config{NumSets: 40, K: 4, Eps: 0.4, Seed: 5, NumElems: 3000, EdgeBudget: 100, Engine: ModeDynamic, Shards: shards}
}

// dynCutsSchedule is a valid turnstile schedule: every round inserts
// fresh edges and retracts part of what earlier rounds inserted, enough
// live edges that recovery subsamples.
func dynCutsSchedule(rounds int, seed int64) [][]bipartite.Op {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[bipartite.Edge]bool)
	var live []bipartite.Edge
	out := make([][]bipartite.Op, rounds)
	for r := range out {
		var ins []bipartite.Edge
		for len(ins) < 30 {
			e := bipartite.Edge{Set: uint32(rng.Intn(40)), Elem: uint32(rng.Intn(3000))}
			if !seen[e] {
				seen[e] = true
				ins = append(ins, e)
			}
		}
		ops := bipartite.Inserts(ins)
		if r > 3 {
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			ops = append(ops, bipartite.Deletes(live[:12])...)
			live = live[12:]
		}
		live = append(live, ins...)
		out[r] = ops
	}
	return out
}

// records packs ops as the records a shard state's AddEdges takes.
func records(ops []bipartite.Op) []bipartite.Edge {
	recs := make([]bipartite.Edge, len(ops))
	for i, op := range ops {
		recs[i] = bipartite.Record(op)
	}
	return recs
}

// drainFree empties a dynamic mode's free list.
func drainFree(m Mode) []*l0.Sampler {
	var out []*l0.Sampler
	for {
		sam, ok := m.(dynamicMode).free.Get().(*l0.Sampler)
		if !ok {
			return out
		}
		out = append(out, sam)
	}
}

// TestDynamicCutsNeverReachASnapshot holds the dynamic refresh to its
// ownership rule: shard cuts live in recycled arrays and are summed in
// place, but an array that reached a Snapshot is never written and never
// recycled. Run with -race: the detector watches the recycled arrays
// cross from shard goroutines to the coordinator and back while snapshot
// readers serialize published states.
func TestDynamicCutsNeverReachASnapshot(t *testing.T) {
	t.Run("published states keep their bytes", func(t *testing.T) {
		const rounds = 30
		e, err := New(dynCutsConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// A peer's state as a cluster pull holds it: decoded bytes.
		peer, err := New(dynCutsConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		if _, err := peer.IngestOps(dynCutsSchedule(1, 99)[0]); err != nil {
			t.Fatal(err)
		}
		remote, err := e.EngineMode().ReadState(bytes.NewReader(stateBytes(t, peer)))
		if err != nil {
			t.Fatal(err)
		}

		var (
			mu   sync.Mutex
			seen = map[*Snapshot][]byte{}
		)
		record := func(snap *Snapshot) error {
			var buf bytes.Buffer
			if err := snap.WriteState(&buf); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := seen[snap]; ok && !bytes.Equal(prev, buf.Bytes()) {
				return fmt.Errorf("snapshot seq %d serialized differently the second time", snap.Seq)
			}
			seen[snap] = buf.Bytes()
			return nil
		}
		schedule := dynCutsSchedule(rounds+50, 1)
		var held []*Snapshot // superseded snapshots the fold keeps reading
		actors := []func(round int) error{
			func(round int) error { // ingest
				_, err := e.IngestOps(schedule[round])
				return err
			},
			func(int) error { // coordinator refresh
				snap, err := e.Refresh()
				if err != nil {
					return err
				}
				return record(snap)
			},
			func(int) error { // batch-aligned checkpoint
				snap, err := e.Checkpoint()
				if err != nil {
					return err
				}
				return record(snap)
			},
			func(int) error { // snapshot GET / ServeState: serialize whatever is published
				snap, err := e.Snapshot()
				if err != nil {
					return err
				}
				return record(snap)
			},
			func(round int) error { // cluster fold over a snapshot it keeps holding
				snap, err := e.Snapshot()
				if err != nil {
					return err
				}
				held = append(held, snap)
				old := held[round/2]
				folded, err := e.MergeSnapshot(uint64(round), old.IngestedEdges+remote.Stats().EdgesSeen, nil, []FrozenState{old.State(), remote})
				if err != nil {
					return err
				}
				if err := record(folded); err != nil {
					return err
				}
				return record(old)
			},
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(actors))
		for _, act := range actors {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					if err := act(round); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// 50 more refreshes, none idle: every array the free list holds is
		// copied over many times. Nothing recorded above may have moved.
		for _, ops := range schedule[rounds:] {
			if _, err := e.IngestOps(ops); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) < 10 {
			t.Fatalf("only %d distinct snapshots recorded", len(seen))
		}
		for snap := range seen {
			if err := record(snap); err != nil {
				t.Fatalf("after 50 later refreshes: %v", err)
			}
		}
		var again bytes.Buffer
		if _, err := remote.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), stateBytes(t, peer)) {
			t.Fatalf("the decoded peer state changed under the folds (err %v)", err)
		}
	})

	t.Run("a failed merge recycles each cut once and no published array", func(t *testing.T) {
		// One P, so the sync.Pool behind the free list is a plain stack and
		// draining it sees everything that was put.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		cfg := dynCutsConfig(1)
		mode, err := cfg.EngineMode()
		if err != nil {
			t.Fatal(err)
		}
		schedule := dynCutsSchedule(8, 2)
		shards := make([]ShardState, 4)
		for i := range shards {
			if shards[i], err = mode.NewShardState(); err != nil {
				t.Fatal(err)
			}
			shards[i].AddEdges(records(schedule[i]))
		}
		cuts := func() []FrozenState {
			out := make([]FrozenState, len(shards))
			for i, sh := range shards {
				out[i] = sh.Freeze(nil)
			}
			return out
		}
		published, err := mode.MergeStates(cuts(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var before bytes.Buffer
		if _, err := published.WriteTo(&before); err != nil {
			t.Fatal(err)
		}
		drainFree(mode)

		for _, tc := range []struct {
			name  string
			build func() []FrozenState
			want  int // arrays on the free list afterwards
		}{
			{"foreign state after two cuts", func() []FrozenState {
				c := cuts()
				return []FrozenState{c[0], c[1], &weighted.BankView{}, c[2], c[3]}
			}, 4},
			// The sum started as a private copy of the published state:
			// that copy is recycled with the four cuts, the original is not.
			{"published state first, then a foreign one", func() []FrozenState {
				c := cuts()
				return []FrozenState{published, c[0], &weighted.BankView{}, c[1], c[2], c[3]}
			}, 5},
			{"a cut handed to a second merge", func() []FrozenState {
				c := cuts()
				if _, err := mode.MergeStates(c[:1], 0); err != nil {
					t.Fatal(err)
				}
				return c // c[0]'s array now belongs to that merge's result
			}, 3},
		} {
			name, states := tc.name, tc.build()
			if _, err := mode.MergeStates(states, 0); err == nil {
				t.Fatalf("%s: merge succeeded", name)
			}
			for i, st := range states {
				if cut, ok := st.(*dynamicCut); ok && cut.sam != nil {
					t.Fatalf("%s: input %d (a cut) was not consumed", name, i)
				}
			}
			free := drainFree(mode)
			distinct := make(map[*l0.Sampler]bool)
			for _, sam := range free {
				if distinct[sam] {
					t.Fatalf("%s: an array is on the free list twice", name)
				}
				distinct[sam] = true
				if sam == published.(*dynamicState).sam {
					t.Fatalf("%s: the published state's array was recycled", name)
				}
			}
			// Every cut's array comes back (the race detector's sync.Pool
			// drops Puts at random, so only an upper bound holds there).
			if len(free) > tc.want || (!raceEnabled && len(free) != tc.want) {
				t.Fatalf("%s: %d arrays on the free list, want %d", name, len(free), tc.want)
			}
		}
		var after bytes.Buffer
		if _, err := published.WriteTo(&after); err != nil || !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("the published state changed under failed merges (err %v)", err)
		}
	})

	t.Run("any shard count equals one shard never refreshed in between", func(t *testing.T) {
		schedule := dynCutsSchedule(24, 3)
		never, err := New(dynCutsConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		defer never.Close()
		for _, ops := range schedule {
			if _, err := never.IngestOps(ops); err != nil {
				t.Fatal(err)
			}
		}
		q := Query{Algo: AlgoKCover, K: 4, Refresh: true}
		want, err := never.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.PStar >= 1 {
			t.Fatalf("schedule decodes at level 0 (p* %v); it should subsample", want.PStar)
		}
		wantBytes := stateBytes(t, never)
		for _, shards := range []int{1, 2, 4, 8} {
			e, err := New(dynCutsConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			for i, ops := range schedule {
				if _, err := e.IngestOps(ops); err != nil {
					t.Fatal(err)
				}
				refresh := e.Refresh
				if i%3 == 2 {
					refresh = e.Checkpoint
				}
				if _, err := refresh(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, fmt.Sprintf("%d shards, refreshed every batch", shards), got, want)
			if !bytes.Equal(stateBytes(t, e), wantBytes) {
				t.Fatalf("%d shards: state bytes differ from the one-shard engine's", shards)
			}
			e.Close()
		}
	})
}

// TestReadStateRejectsForeignGeometryBeforeAllocating: a 64-byte
// L0DYNS2 blob whose sampler header announces the largest legal geometry
// (Levels 16 × Cells 1048575, no cells, valid CRCs) used to make the
// decoder allocate 512 MiB before the mode compared parameters — per
// cluster pull, snapshot restore or container recovery. The decoder now
// takes the expected parameters and refuses the header first.
func TestReadStateRejectsForeignGeometryBeforeAllocating(t *testing.T) {
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	sampler := []byte("L0SAMP2\n")
	sampler = binary.LittleEndian.AppendUint32(sampler, 16)
	sampler = binary.LittleEndian.AppendUint32(sampler, 1048575)
	sampler = binary.LittleEndian.AppendUint64(sampler, 5)
	sampler = binary.LittleEndian.AppendUint64(sampler, 0)
	sampler = binary.LittleEndian.AppendUint32(sampler, crc32.Checksum(sampler[8:], crcTable))
	state := []byte(dynMagicV2)
	state = binary.LittleEndian.AppendUint64(state, 1000)
	state = binary.LittleEndian.AppendUint64(state, 10)
	state = binary.LittleEndian.AppendUint32(state, crc32.Checksum(state[len(dynMagic):], crcTable))
	state = append(state, sampler...)
	if len(sampler) != 36 || len(state) != 64 {
		t.Fatalf("blob sizes %d/%d, want 36/64", len(sampler), len(state))
	}

	cfg := dynCutsConfig(2)
	mode, err := cfg.EngineMode()
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func() error{
		"l0.ReadSampler": func() error {
			_, err := l0.ReadSampler(bytes.NewReader(sampler), cfg.DynamicParams())
			return err
		},
		"ReadState": func() error {
			_, err := mode.ReadState(bytes.NewReader(state))
			return err
		},
		"ReadRestore": func() error {
			_, err := ReadRestore(cfg, bytes.NewReader(state))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, l0.ErrParamsMismatch) {
			t.Fatalf("%s: err = %v, want l0.ErrParamsMismatch", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: refusing a %d-byte blob allocated %d bytes", name, len(state), alloc)
		}
	}
}
