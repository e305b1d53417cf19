package server

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/wal/faultfs"
)

// The dynamic-mode leg of the crash-recovery suite: the WAL now carries
// op frames (inserts and deletes interleaved), and recovery must still
// be bit-identical to an uncrashed engine fed the acknowledged batch
// prefix. The sampler's linearity is what makes this exact: the
// recovered state is a function of the net op multiset alone, so
// replaying the same op prefix — whatever the crash point tore off —
// reproduces the same bytes.

// durOpBatches builds a deterministic op workload: every batch inserts
// fresh edges, and every odd batch additionally retracts half of the
// previous batch's inserts, keeping the whole stream a valid turnstile
// stream at every prefix.
func durOpBatches(numSets, numElems, batches, per int) [][]bipartite.Op {
	ins := durBatches(numSets, numElems, batches, per)
	out := make([][]bipartite.Op, batches)
	for b := range out {
		ops := bipartite.Inserts(ins[b])
		if b%2 == 1 {
			ops = append(ops, bipartite.Deletes(ins[b-1][:per/2])...)
		}
		out[b] = ops
	}
	return out
}

// prefixOpRef is prefixRef for op batches: a WAL-less dynamic engine
// that ingests the first n op batches, serialized canonically.
func prefixOpRef(t *testing.T, cfg Config, batches [][]bipartite.Op, n int) []byte {
	t.Helper()
	cfg.WAL = nil
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	defer e.Close()
	for _, b := range batches[:n] {
		if _, err := e.IngestOps(b); err != nil {
			t.Fatalf("ref IngestOps: %v", err)
		}
	}
	return stateBytes(t, e)
}

// TestDynamicCrashRecoveryBitIdentical sweeps an injected crash across
// the op-framed WAL byte range: for every crash point, the recovered
// dynamic engine's merged state must serialize to exactly the bytes of
// an uncrashed engine that applied the acknowledged op-batch prefix —
// deletes included.
func TestDynamicCrashRecoveryBitIdentical(t *testing.T) {
	base := durConfig(ModeSketch)
	base.Engine = ModeDynamic
	batches := durOpBatches(base.NumSets, base.NumElems, 10, 6)
	opCount := func(n int) int64 {
		var c int64
		for _, b := range batches[:n] {
			c += int64(len(b))
		}
		return c
	}

	// Probe run: no fault, measure the workload's WAL byte volume.
	probe := faultfs.NewInjector(-1)
	cfg := base
	cfg.WAL = &WALConfig{Dir: t.TempDir(), Fsync: "always", OpenWrite: probe.OpenWrite}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New(probe): %v", err)
	}
	for _, b := range batches {
		if _, err := e.IngestOps(b); err != nil {
			t.Fatalf("probe IngestOps: %v", err)
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
		b := prefixOpRef(t, base, batches, n)
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
				if _, err := e.IngestOps(b); err != nil {
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
		if got := rec.IngestedEdges(); got != opCount(acked) {
			t.Fatalf("limit %d: recovered %d ops, acknowledged %d", limit, got, opCount(acked))
		}
		got := stateBytes(t, rec)
		rec.Close()
		if !bytes.Equal(got, refFor(acked)) {
			t.Fatalf("limit %d (acked %d/%d batches): recovered dynamic state differs from uncrashed reference",
				limit, acked, len(batches))
		}
	}
}

// TestDynamicWALDeleteAllRecoversEmpty pins the WAL-recovery leg of the
// insert-all-delete-all acceptance: a log whose net stream is empty
// recovers into an engine whose answer is the empty solution.
func TestDynamicWALDeleteAllRecoversEmpty(t *testing.T) {
	base := durConfig(ModeSketch)
	base.Engine = ModeDynamic
	edges := durBatches(base.NumSets, base.NumElems, 1, 120)[0]

	dir := t.TempDir()
	cfg := base
	cfg.WAL = &WALConfig{Dir: dir, Fsync: "always"}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestOps(bipartite.Inserts(edges)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestOps(bipartite.Deletes(edges)); err != nil {
		t.Fatal(err)
	}
	e.Close()

	rcfg := base
	rcfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
	rec, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.IngestedEdges(); got != int64(2*len(edges)) {
		t.Fatalf("recovered %d ops, want %d", got, 2*len(edges))
	}
	res, err := rec.Query(Query{Algo: AlgoKCover, K: base.K, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 0 || res.EstimatedCoverage != 0 || res.SketchCoverage != 0 {
		t.Fatalf("recovered engine answered %v (coverage %v/%d) on a fully cancelled log",
			res.Sets, res.EstimatedCoverage, res.SketchCoverage)
	}
}

// TestDynamicWALRejectsLegacyEngineReplay: a WAL holding delete frames
// replayed into an append-only engine is a configuration mismatch and
// must surface the typed error, not data loss.
func TestDynamicWALRejectsLegacyEngineReplay(t *testing.T) {
	base := durConfig(ModeSketch)
	dynCfg := base
	dynCfg.Engine = ModeDynamic
	edges := durBatches(base.NumSets, base.NumElems, 1, 20)[0]

	dir := t.TempDir()
	dynCfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
	e, err := New(dynCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestOps(bipartite.Inserts(edges)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestOps(bipartite.Deletes(edges[:5])); err != nil {
		t.Fatal(err)
	}
	e.Close()

	cfg := base // sketch engine over the same log
	cfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
	if _, err := New(cfg); err == nil {
		t.Fatal("sketch engine replayed a delete-bearing WAL without error")
	}
}

// TestDeleteLogRecoveryContract holds openWAL's promise: the WAL reader
// hands deletes back as records, and an append-only engine recovering a
// dynamic engine's log refuses it with the typed ErrDeletesUnsupported —
// a configuration mismatch, not a set-range error and not data loss.
func TestDeleteLogRecoveryContract(t *testing.T) {
	base := durConfig(ModeSketch)
	edges := durBatches(base.NumSets, base.NumElems, 1, 20)[0]
	dir := t.TempDir()

	dynCfg := base
	dynCfg.Engine = ModeDynamic
	dynCfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
	e, err := New(dynCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestOps(append(bipartite.Inserts(edges), bipartite.Deletes(edges[:1])...)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	weightedCfg := base
	weightedCfg.Weights = &WeightConfig{Default: 1}
	for name, cfg := range map[string]Config{"sketch": base, "weighted": weightedCfg} {
		cfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
		if e, err := New(cfg); !errors.Is(err, ErrDeletesUnsupported) {
			if e != nil {
				e.Close()
			}
			t.Fatalf("%s engine over a delete log: err = %v, want ErrDeletesUnsupported", name, err)
		}
	}
}
