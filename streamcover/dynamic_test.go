package streamcover

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/server"
)

func dynTestEdges(n int) []Edge {
	inst := GenerateZipf(30, 600, 80, 0.9, 0.7, 21)
	var edges []Edge
	st := inst.EdgeStream(4)
	for len(edges) < n {
		e, ok := st.Next()
		if !ok {
			break
		}
		edges = append(edges, e)
	}
	return edges
}

// TestDynamicServiceInsertOnlyMatchesSketch: on a stream both engines
// hold exactly (budget ≥ edges, sampler at level 0), a dynamic service
// fed only inserts answers the same kcover queries the default sketch
// service does.
func TestDynamicServiceInsertOnlyMatchesSketch(t *testing.T) {
	const n, k = 30, 4
	edges := dynTestEdges(800)
	opt := ServiceOptions{
		Options: Options{Seed: 21, NumElems: 600, EdgeBudget: 2000},
		K:       k, Shards: 2,
	}

	sk, err := NewService(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sk.Close()
	dy, err := NewDynamicService(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer dy.Close()

	if err := sk.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{Edge: e}
	}
	if err := dy.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}

	want, err := sk.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Sets) == 0 {
		t.Fatal("sketch answer is empty; the workload tests nothing")
	}
	got, err := dy.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sets) != len(want.Sets) {
		t.Fatalf("dynamic sets %v != sketch %v", got.Sets, want.Sets)
	}
	for i := range got.Sets {
		if got.Sets[i] != want.Sets[i] {
			t.Fatalf("dynamic sets %v != sketch %v", got.Sets, want.Sets)
		}
	}
	if got.EstimatedCoverage != want.EstimatedCoverage {
		t.Fatalf("dynamic coverage %v != sketch %v", got.EstimatedCoverage, want.EstimatedCoverage)
	}
}

// TestDynamicServiceDeleteAll: the library-surface leg of the
// insert-all-delete-all acceptance — after retracting every inserted
// edge, kcover answers the empty solution, and the op count is the
// gross (insert + delete) stream length.
func TestDynamicServiceDeleteAll(t *testing.T) {
	const n, k = 30, 4
	edges := dynTestEdges(800)
	svc, err := NewDynamicService(n, ServiceOptions{
		Options: Options{Seed: 21, NumElems: 600},
		K:       k, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Inserts through the plain Ingest path; deletes through both
	// Delete and a mixed ApplyOps batch.
	if err := svc.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	half := len(edges) / 2
	if err := svc.Delete(edges[:half]); err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 0, len(edges)-half)
	for _, e := range edges[half:] {
		ops = append(ops, Op{Kind: OpDelete, Edge: e})
	}
	if err := svc.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}

	res, err := svc.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 0 || res.EstimatedCoverage != 0 {
		t.Fatalf("delete-all answered %v (coverage %v), want the empty solution",
			res.Sets, res.EstimatedCoverage)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestedEdges != int64(2*len(edges)) {
		t.Fatalf("ingested %d ops, want %d", st.IngestedEdges, 2*len(edges))
	}

	// A snapshot of the cancelled state restores to a service that
	// still answers the empty solution.
	var blob bytes.Buffer
	if err := svc.WriteSnapshot(&blob); err != nil {
		t.Fatal(err)
	}
	rec, err := RestoreService(&blob, n, ServiceOptions{
		Options: Options{Seed: 21, NumElems: 600},
		K:       k, Shards: 3, Engine: "dynamic",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rres, err := rec.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Sets) != 0 || rres.EstimatedCoverage != 0 {
		t.Fatalf("restored cancelled state answered %v", rres.Sets)
	}
}

// TestDeleteRejectedOnLegacyServices: retractions against the
// append-only engines fail with the typed error, while insert-only
// ApplyOps batches take the ordinary ingest path everywhere.
func TestDeleteRejectedOnLegacyServices(t *testing.T) {
	const n = 20
	mk := map[string]func() (*Service, error){
		"sketch": func() (*Service, error) {
			return NewService(n, ServiceOptions{Options: Options{Seed: 3, NumElems: 100}, K: 3})
		},
		"weighted": func() (*Service, error) {
			return NewWeightedService(n, Weights{Default: 1}, ServiceOptions{Options: Options{Seed: 3, NumElems: 100}, K: 3})
		},
	}
	for name, ctor := range mk {
		svc, err := ctor()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := svc.ApplyOps([]Op{{Edge: Edge{Set: 1, Elem: 2}}, {Edge: Edge{Set: 2, Elem: 3}}}); err != nil {
			t.Fatalf("%s: insert-only ApplyOps: %v", name, err)
		}
		if err := svc.Delete([]Edge{{Set: 1, Elem: 2}}); !errors.Is(err, server.ErrDeletesUnsupported) {
			t.Fatalf("%s: Delete err = %v, want ErrDeletesUnsupported", name, err)
		}
		if err := svc.ApplyOps([]Op{{Kind: OpDelete, Edge: Edge{Set: 1, Elem: 2}}}); !errors.Is(err, server.ErrDeletesUnsupported) {
			t.Fatalf("%s: delete ApplyOps err = %v, want ErrDeletesUnsupported", name, err)
		}
		st, err := svc.Stats()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.IngestedEdges != 2 {
			t.Fatalf("%s: ingested %d after rejected deletes, want 2", name, st.IngestedEdges)
		}
		svc.Close()
	}
}

// TestServiceRejectsUnknownEngine: ServiceOptions.Engine reaches the
// engine's mode resolution through the generic constructor, so a name
// that is not a mode — a typo, or the removed "sieve" — is a
// construction error listing the known modes.
func TestServiceRejectsUnknownEngine(t *testing.T) {
	for _, name := range []string{"turbo", "sieve"} {
		_, err := NewService(10, ServiceOptions{Options: Options{NumElems: 100}, K: 3, Engine: name})
		if err == nil || !strings.Contains(err.Error(), "unknown engine") || !strings.Contains(err.Error(), `"dynamic"`) {
			t.Fatalf("Engine %q: err = %v, want an unknown-engine error listing the modes", name, err)
		}
	}
}
