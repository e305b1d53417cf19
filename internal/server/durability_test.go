package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/wal/faultfs"
)

// durConfig returns a small engine config for durability tests in the
// given mode ("sketch", "weighted", "dynamic").
func durConfig(mode ModeName) Config {
	cfg := Config{
		NumSets:  40,
		K:        4,
		Eps:      0.5,
		Seed:     42,
		NumElems: 600,
		Shards:   3,
	}
	switch mode {
	case ModeWeighted:
		table := make([]float64, 600)
		for i := range table {
			table[i] = float64(1 + i%7)
		}
		cfg.Weights = &WeightConfig{Table: table, Default: 1}
	case ModeDynamic:
		cfg.Engine = ModeDynamic
		// 400 cells a level instead of the formula's 16384: the crash
		// sweeps build an engine per crash point.
		cfg.EdgeBudget = 200
	}
	return cfg
}

// durBatches generates a deterministic batched edge workload.
func durBatches(numSets, numElems, batches, per int) [][]bipartite.Edge {
	out := make([][]bipartite.Edge, batches)
	state := uint64(0x9e3779b97f4a7c15)
	for b := range out {
		batch := make([]bipartite.Edge, per)
		for i := range batch {
			state = state*6364136223846793005 + 1442695040888963407
			batch[i] = bipartite.Edge{
				Set:  uint32(state>>33) % uint32(numSets),
				Elem: uint32(state>>13) % uint32(numElems),
			}
		}
		out[b] = batch
	}
	return out
}

// stateBytes snapshots an engine's merged state to canonical bytes.
func stateBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// prefixRef builds the uncrashed reference: a WAL-less engine that
// ingests the first n batches, serialized canonically. Memoized per n
// by the caller.
func prefixRef(t *testing.T, cfg Config, batches [][]bipartite.Edge, n int) []byte {
	t.Helper()
	cfg.WAL = nil
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	defer e.Close()
	for _, b := range batches[:n] {
		if _, err := e.Ingest(b); err != nil {
			t.Fatalf("ref Ingest: %v", err)
		}
	}
	return stateBytes(t, e)
}

var durModes = []ModeName{ModeSketch, ModeWeighted, ModeDynamic}

// TestCrashRecoveryBitIdentical sweeps an injected crash across the WAL
// byte range: for every crash point, a recovered engine's merged state
// must serialize to exactly the bytes of an uncrashed engine that
// ingested the acknowledged batch prefix — for all three engine modes.
// (Canonical serialization means equal bytes ⇔ equal state.)
func TestCrashRecoveryBitIdentical(t *testing.T) {
	for _, mode := range durModes {
		t.Run(string(mode), func(t *testing.T) {
			base := durConfig(mode)
			batches := durBatches(base.NumSets, base.NumElems, 10, 6)

			// Probe run: no fault, measure the workload's WAL byte volume.
			probe := faultfs.NewInjector(-1)
			cfg := base
			cfg.WAL = &WALConfig{Dir: t.TempDir(), Fsync: "always", OpenWrite: probe.OpenWrite}
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("New(probe): %v", err)
			}
			for _, b := range batches {
				if _, err := e.Ingest(b); err != nil {
					t.Fatalf("probe Ingest: %v", err)
				}
			}
			e.Close()
			totalBytes := probe.Written()
			if totalBytes == 0 {
				t.Fatalf("probe wrote no WAL bytes")
			}

			refs := map[int][]byte{}
			refFor := func(n int) []byte {
				if b, ok := refs[n]; ok {
					return b
				}
				b := prefixRef(t, base, batches, n)
				refs[n] = b
				return b
			}

			step := int64(5)
			if testing.Short() {
				step = 37
			}
			for limit := int64(0); limit <= totalBytes; limit += step {
				dir := t.TempDir()
				inj := faultfs.NewInjector(limit)
				cfg := base
				cfg.WAL = &WALConfig{Dir: dir, Fsync: "always", OpenWrite: inj.OpenWrite}
				acked := 0
				if e, err := New(cfg); err == nil {
					for _, b := range batches {
						if _, err := e.Ingest(b); err != nil {
							break
						}
						acked++
					}
					e.Close() // may fail syncing the torn tail; the crash is the point
				}

				rcfg := base
				rcfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
				rec, err := New(rcfg)
				if err != nil {
					t.Fatalf("limit %d: recovery New: %v", limit, err)
				}
				if got := rec.IngestedEdges(); got != int64(acked*6) {
					t.Fatalf("limit %d: recovered %d edges, acknowledged %d", limit, got, acked*6)
				}
				got := stateBytes(t, rec)
				rec.Close()
				if !bytes.Equal(got, refFor(acked)) {
					t.Fatalf("limit %d (acked %d/%d batches): recovered state differs from uncrashed reference",
						limit, acked, len(batches))
				}
			}
		})
	}
}

// TestCrashRecoveryAfterCheckpoint crashes in the WAL tail *after* a
// durable checkpoint: recovery = restore the snapshot + replay only the
// uncovered tail. The pinned invariant is that a crash is
// indistinguishable from a clean restart at the same point — recovered
// bytes equal a clean restore-from-checkpoint followed by direct
// ingestion of the acknowledged tail — and that reference is itself
// pinned to the engine that never restarted at all: every mode's state
// is a function of the edge multiset alone (DESIGN.md §11), so restore +
// tail = straight-through.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	for _, mode := range durModes {
		t.Run(string(mode), func(t *testing.T) {
			base := durConfig(mode)
			batches := durBatches(base.NumSets, base.NumElems, 10, 6)
			half := len(batches) / 2

			// Probe run with a mid-stream checkpoint, recording the WAL byte
			// volume at the checkpoint and at the end.
			probe := faultfs.NewInjector(-1)
			cfg := base
			cfg.WAL = &WALConfig{Dir: t.TempDir(), Fsync: "always", OpenWrite: probe.OpenWrite}
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("New(probe): %v", err)
			}
			snapProbe := filepath.Join(t.TempDir(), "probe.snap")
			for _, b := range batches[:half] {
				if _, err := e.Ingest(b); err != nil {
					t.Fatalf("probe Ingest: %v", err)
				}
			}
			if _, err := CheckpointEngine(e, snapProbe); err != nil {
				t.Fatalf("probe CheckpointEngine: %v", err)
			}
			ckptBytes := probe.Written()
			for _, b := range batches[half:] {
				if _, err := e.Ingest(b); err != nil {
					t.Fatalf("probe Ingest: %v", err)
				}
			}
			e.Close()
			totalBytes := probe.Written()
			if totalBytes <= ckptBytes {
				t.Fatalf("tail wrote no WAL bytes (ckpt %d, total %d)", ckptBytes, totalBytes)
			}

			// Reference: a clean restart from the checkpoint — restore the
			// snapshot, then ingest the first n-half tail batches directly.
			// (The checkpoint is deterministic, so every crashed run's
			// snapshot file equals the probe's.)
			refs := map[int][]byte{}
			refFor := func(n int) []byte {
				if b, ok := refs[n]; ok {
					return b
				}
				f, err := os.Open(snapProbe)
				if err != nil {
					t.Fatalf("opening probe snapshot: %v", err)
				}
				rcfg, err := ReadRestore(base, f)
				f.Close()
				if err != nil {
					t.Fatalf("ReadRestore(ref): %v", err)
				}
				e, err := New(rcfg)
				if err != nil {
					t.Fatalf("New(ref): %v", err)
				}
				for _, bt := range batches[half:n] {
					if _, err := e.Ingest(bt); err != nil {
						t.Fatalf("ref Ingest: %v", err)
					}
				}
				b := stateBytes(t, e)
				e.Close()
				// Merge-composability: the clean restart equals the engine
				// that never restarted.
				if direct := prefixRef(t, base, batches, n); !bytes.Equal(b, direct) {
					t.Fatalf("restart reference diverged from straight-through engine at %d batches", n)
				}
				refs[n] = b
				return b
			}

			step := int64(5)
			if testing.Short() {
				step = 37
			}
			for limit := ckptBytes + 1; limit <= totalBytes; limit += step {
				dir := t.TempDir()
				snapPath := filepath.Join(t.TempDir(), "state.snap")
				inj := faultfs.NewInjector(limit)
				cfg := base
				cfg.WAL = &WALConfig{Dir: dir, Fsync: "always", OpenWrite: inj.OpenWrite}
				e, err := New(cfg)
				if err != nil {
					t.Fatalf("limit %d: New: %v", limit, err)
				}
				acked := 0
				for _, b := range batches[:half] {
					if _, err := e.Ingest(b); err != nil {
						t.Fatalf("limit %d: pre-checkpoint Ingest: %v", limit, err)
					}
					acked++
				}
				if _, err := CheckpointEngine(e, snapPath); err != nil {
					t.Fatalf("limit %d: CheckpointEngine: %v", limit, err)
				}
				for _, b := range batches[half:] {
					if _, err := e.Ingest(b); err != nil {
						break
					}
					acked++
				}
				e.Close()

				// Recover: snapshot restore + WAL tail replay.
				f, err := os.Open(snapPath)
				if err != nil {
					t.Fatalf("limit %d: opening snapshot: %v", limit, err)
				}
				rcfg, err := ReadRestore(base, f)
				f.Close()
				if err != nil {
					t.Fatalf("limit %d: ReadRestore: %v", limit, err)
				}
				rcfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
				rec, err := New(rcfg)
				if err != nil {
					t.Fatalf("limit %d: recovery New: %v", limit, err)
				}
				if got := rec.IngestedEdges(); got != int64(acked*6) {
					t.Fatalf("limit %d: recovered %d edges, acknowledged %d", limit, got, acked*6)
				}
				got := stateBytes(t, rec)
				rec.Close()
				if !bytes.Equal(got, refFor(acked)) {
					t.Fatalf("limit %d (acked %d/%d batches): recovered state differs from uncrashed reference",
						limit, acked, len(batches))
				}
			}
		})
	}
}

// TestMultiDurabilityLifecycle exercises the directory-level plane:
// namespaces created under SetDurability log to per-namespace WAL dirs,
// CheckpointMulti truncates them behind the container, a restart
// (RestoreAll + RecoverNamespaces) rebuilds every namespace — including
// two never captured in any container, one of them (dynamic) knowing
// its engine mode only from the WAL config sidecar — bit-identically,
// and Delete removes the namespace's WAL directory so it cannot
// resurrect.
func TestMultiDurabilityLifecycle(t *testing.T) {
	walRoot := t.TempDir()
	snapPath := filepath.Join(t.TempDir(), "all.snap")
	dur := &WALConfig{Dir: walRoot, Fsync: "off"}

	m := NewMulti("")
	m.SetDurability(dur)
	cfgA := durConfig(ModeSketch)
	late := map[string]Config{"beta": durConfig(ModeWeighted), "gamma": durConfig(ModeDynamic)}
	if _, err := m.Create("alpha", cfgA); err != nil {
		t.Fatalf("Create(alpha): %v", err)
	}
	batches := durBatches(cfgA.NumSets, cfgA.NumElems, 8, 5)
	a, _ := m.Get("alpha")
	for _, b := range batches[:4] {
		if _, err := a.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := CheckpointMulti(m, snapPath); err != nil {
		t.Fatalf("CheckpointMulti: %v", err)
	}
	// Post-checkpoint work: a tail on alpha, plus namespaces the
	// container has never seen.
	for _, b := range batches[4:] {
		if _, err := a.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	wantLate := map[string][]byte{}
	for name, cfg := range late {
		e, err := m.Create(name, cfg)
		if err != nil {
			t.Fatalf("Create(%s): %v", name, err)
		}
		for _, b := range batches[:3] {
			if _, err := e.Ingest(b); err != nil {
				t.Fatalf("Ingest(%s): %v", name, err)
			}
		}
		wantLate[name] = stateBytes(t, e)
	}
	wantA := stateBytes(t, a)
	m.Close() // "crash" with a clean kernel: fsync=off still survives process death

	// Restart.
	m2 := NewMulti("")
	m2.SetDurability(dur)
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("opening container: %v", err)
	}
	if n, err := m2.RestoreAll(f); err != nil || n != 1 {
		t.Fatalf("RestoreAll = %d, %v; want 1 namespace", n, err)
	}
	f.Close()
	recovered, err := m2.RecoverNamespaces()
	if err != nil {
		t.Fatalf("RecoverNamespaces: %v", err)
	}
	if len(recovered) != 2 || recovered[0] != "beta" || recovered[1] != "gamma" {
		t.Fatalf("RecoverNamespaces = %v, want [beta gamma]", recovered)
	}
	a2, ok := m2.Get("alpha")
	if !ok {
		t.Fatalf("alpha missing after restart")
	}
	if got := stateBytes(t, a2); !bytes.Equal(got, wantA) {
		t.Fatalf("alpha state differs after restart")
	}
	for name, want := range wantLate {
		e, ok := m2.Get(name)
		if !ok {
			t.Fatalf("%s missing after restart", name)
		}
		if e.ModeName() != late[name].engineName() {
			t.Fatalf("%s recovered as a %s engine, want %s", name, e.ModeName(), late[name].engineName())
		}
		if got := stateBytes(t, e); !bytes.Equal(got, want) {
			t.Fatalf("%s state differs after restart", name)
		}
	}

	// Delete must take the WAL directory with it.
	if err := m2.Delete("beta"); err != nil {
		t.Fatalf("Delete(beta): %v", err)
	}
	if _, err := os.Stat(filepath.Join(walRoot, "beta")); !os.IsNotExist(err) {
		t.Fatalf("beta WAL dir survived Delete: %v", err)
	}
	if rec, err := m2.RecoverNamespaces(); err != nil || len(rec) != 0 {
		t.Fatalf("deleted namespace resurrected: %v, %v", rec, err)
	}
	m2.Close()
}

// TestAutosnapshotCheckpoints exercises the periodic checkpoint loop:
// the container file appears, reflects ingested data, and the WAL
// shrinks behind it.
func TestAutosnapshotCheckpoints(t *testing.T) {
	walRoot := t.TempDir()
	snapPath := filepath.Join(t.TempDir(), "auto.snap")
	m := NewMulti("")
	m.SetDurability(&WALConfig{Dir: walRoot, Fsync: "off"})
	defer m.Close()
	cfg := durConfig(ModeSketch)
	e, err := m.Create("ns", cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	batches := durBatches(cfg.NumSets, cfg.NumElems, 6, 5)
	for _, b := range batches {
		if _, err := e.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	var autoErr error
	stop := m.StartAutosnapshot(snapPath, 5*time.Millisecond, func(err error) { autoErr = err })
	deadline := time.Now().Add(2 * time.Second)
	for {
		if fi, err := os.Stat(snapPath); err == nil && fi.Size() > 0 && e.WALStats().NextOffset == 30 {
			// One checkpoint covered everything: the replayable WAL tail is
			// empty (all segments behind the cut were truncated).
			if st := e.WALStats(); st.Segments == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("autosnapshot never produced a truncating checkpoint (stats %+v, err %v)", e.WALStats(), autoErr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	if autoErr != nil {
		t.Fatalf("autosnapshot error: %v", autoErr)
	}

	// The container restores on its own (no WAL tail needed).
	want := stateBytes(t, e)
	m2 := NewMulti("")
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("opening container: %v", err)
	}
	defer f.Close()
	if n, err := m2.RestoreAll(f); err != nil || n != 1 {
		t.Fatalf("RestoreAll = %d, %v", n, err)
	}
	e2, _ := m2.Get("ns")
	if got := stateBytes(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("restored autosnapshot state differs")
	}
	m2.Close()
}

// TestAtomicWriteSyncsBeforeRename pins the durability ordering of the
// snapshot write path: file contents are fsynced before the rename
// publishes them, and the parent directory is fsynced after — the
// missing pieces that used to let a "persisted" snapshot vanish on
// power loss.
func TestAtomicWriteSyncsBeforeRename(t *testing.T) {
	origSyncFile, origRename, origSyncDir := syncFile, renameFile, syncDir
	defer func() { syncFile, renameFile, syncDir = origSyncFile, origRename, origSyncDir }()

	var steps []string
	syncFile = func(f *os.File) error {
		steps = append(steps, "sync-file")
		return origSyncFile(f)
	}
	renameFile = func(old, new string) error {
		steps = append(steps, "rename")
		return origRename(old, new)
	}
	syncDir = func(dir string) error {
		steps = append(steps, "sync-dir")
		return origSyncDir(dir)
	}

	path := filepath.Join(t.TempDir(), "out.bin")
	if err := atomicWrite(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatalf("atomicWrite: %v", err)
	}
	want := []string{"sync-file", "rename", "sync-dir"}
	if fmt.Sprint(steps) != fmt.Sprint(want) {
		t.Fatalf("durability steps = %v, want %v", steps, want)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "payload" {
		t.Fatalf("written file = %q, %v", data, err)
	}
}

// TestNumSetsBoundaryWALRoundTrip: the serialized record spends the set
// word's top bit on the op kind, so set ids must stay below 1<<31. At
// the boundary (NumSets = 1<<31) the largest legal id survives a WAL
// round trip with every acknowledged batch around it; one past it the
// config is refused — the pre-fix engine accepted it, logged such an id
// verbatim, and at recovery the reader took the frame (and everything
// behind it) for a torn tail.
func TestNumSetsBoundaryWALRoundTrip(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("NumSets cannot reach 1<<31 on a 32-bit int")
	}
	top := int64(1) << 31
	cfg := Config{NumSets: int(top), K: 2, Eps: 0.5, Seed: 1, Shards: 2,
		WAL: &WALConfig{Dir: t.TempDir(), Fsync: "off"}}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New at the boundary: %v", err)
	}
	for _, set := range []uint32{5, uint32(top - 1), 6} {
		if _, err := e.Ingest([]bipartite.Edge{{Set: set, Elem: 1}}); err != nil {
			t.Fatalf("Ingest set %d: %v", set, err)
		}
	}
	if _, err := e.Ingest([]bipartite.Edge{{Set: uint32(top), Elem: 1}}); err == nil {
		t.Fatal("set id 1<<31 accepted with NumSets 1<<31")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer e.Close()
	if got := e.IngestedEdges(); got != 3 {
		t.Fatalf("recovered %d of 3 acknowledged edges", got)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var applied int64
	for _, sh := range st.ShardStats {
		applied += sh.EdgesSeen
	}
	if applied != 3 {
		t.Fatalf("shards replayed %d of 3 edges", applied)
	}

	cfg.NumSets = int(top + 1)
	cfg.WAL = nil
	if _, err := New(cfg); !errors.Is(err, ErrNumSetsRange) {
		t.Fatalf("New with NumSets 1<<31+1: err = %v, want ErrNumSetsRange", err)
	}
	// The namespace API surfaces the same refusal as a 400.
	m := NewMulti("")
	defer m.Close()
	ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{}))
	defer ts.Close()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/ns", fmt.Sprintf(`{"name":"big","num_sets":%d,"k":2}`, top+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /v1/ns with num_sets 1<<31+1: status %d (%s), want 400", resp.StatusCode, body)
	}
}
