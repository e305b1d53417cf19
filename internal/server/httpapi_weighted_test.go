package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
	"repro/internal/weighted"
	"repro/internal/workload"
)

// TestHTTPWeightedNamespace drives the weighted workload end to end
// over the wire: create a namespace with a weight table, ingest, query
// the weighted kcover route, and verify the answer bit-identically
// against the one-shot weighted run.
func TestHTTPWeightedNamespace(t *testing.T) {
	const n, m, k = 40, 2000, 4
	inst := workload.Zipf(n, m, 500, 0.9, 0.7, 11)
	table := weightTable(m)

	multi := NewMulti("")
	defer multi.Close()
	srv := httptest.NewServer(NewMultiHandler(multi, HTTPOptions{}))
	defer srv.Close()

	createBody, _ := json.Marshal(map[string]interface{}{
		"name": "heavy", "num_sets": n, "num_elems": m, "k": k,
		"eps": 0.4, "seed": 7, "edge_budget": 60 * n,
		"weights": map[string]interface{}{"table": table},
	})
	resp, body := doJSON(t, "POST", srv.URL+"/v1/ns", string(createBody))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create weighted namespace: %s: %s", resp.Status, body)
	}
	var info NamespaceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Weighted {
		t.Fatalf("created namespace not marked weighted: %s", body)
	}

	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	pairs := make([][2]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint32{e.Set, e.Elem}
	}
	ingestBody, _ := json.Marshal(map[string]interface{}{"edges": pairs})
	if resp, body := doJSON(t, "POST", srv.URL+"/v1/ns/heavy/edges", string(ingestBody)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}

	cfg := Config{NumSets: n, NumElems: m, K: k, Eps: 0.4, Seed: 7, EdgeBudget: 60 * n,
		Weights: &WeightConfig{Table: table}}
	oneshot, err := weighted.KCover(stream.NewSlice(edges), n, k, cfg.Weights.WeightOf, cfg.WeightedOptions())
	if err != nil {
		t.Fatal(err)
	}

	for _, algo := range []string{"kcover", "wkcover"} {
		resp, body := doJSON(t, "GET",
			fmt.Sprintf("%s/v1/ns/heavy/query?algo=%s&k=%d&refresh=1", srv.URL, algo, k), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: %s: %s", algo, resp.Status, body)
		}
		var res QueryResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("query %s: bad JSON %q: %v", algo, body, err)
		}
		if res.EstimatedCoverage != oneshot.EstimatedCoverage || !sameIntSets(res.Sets, oneshot.Sets) {
			t.Fatalf("algo %s: server (%v, %v) != one-shot (%v, %v)",
				algo, res.Sets, res.EstimatedCoverage, oneshot.Sets, oneshot.EstimatedCoverage)
		}
		if !res.Weighted || res.WeightClasses != oneshot.Classes {
			t.Fatalf("algo %s: weighted=%v classes=%d, want true/%d", algo, res.Weighted, res.WeightClasses, oneshot.Classes)
		}
	}

	// Weighted namespaces reject the unweighted-only algorithms.
	if resp, _ := doJSON(t, "GET", srv.URL+"/v1/ns/heavy/query?algo=outliers&lambda=0.1", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("outliers on weighted namespace: %s, want 400", resp.Status)
	}
	// Unweighted namespaces reject wkcover.
	plainBody, _ := json.Marshal(map[string]interface{}{"name": "plain", "num_sets": n, "k": k})
	if resp, body := doJSON(t, "POST", srv.URL+"/v1/ns", string(plainBody)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create plain namespace: %s: %s", resp.Status, body)
	}
	if resp, _ := doJSON(t, "GET", srv.URL+"/v1/ns/plain/query?algo=wkcover&k=2", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wkcover on unweighted namespace: %s, want 400", resp.Status)
	}
}

// TestHTTPWeightedSnapshotPersistAndRestart pins the covserved restart
// story: POST …/snapshot persists the weighted namespace into the v2
// container, and a fresh Multi restoring the file answers identically.
func TestHTTPWeightedSnapshotPersistAndRestart(t *testing.T) {
	const n, m, k = 30, 1500, 3
	inst := workload.Uniform(n, m, 0.05, 13)
	table := weightTable(m)
	path := filepath.Join(t.TempDir(), "state.mcov")

	multi := NewMulti("")
	defer multi.Close()
	srv := httptest.NewServer(NewMultiHandler(multi, HTTPOptions{SnapshotPath: path}))
	defer srv.Close()

	createBody, _ := json.Marshal(map[string]interface{}{
		"name": "heavy", "num_sets": n, "num_elems": m, "k": k,
		"eps": 0.4, "seed": 3, "edge_budget": 50 * n,
		"weights": map[string]interface{}{"table": table},
	})
	if resp, body := doJSON(t, "POST", srv.URL+"/v1/ns", string(createBody)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s: %s", resp.Status, body)
	}
	edges := stream.Drain(stream.Shuffled(inst.G, 1))
	pairs := make([][2]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint32{e.Set, e.Elem}
	}
	ingestBody, _ := json.Marshal(map[string]interface{}{"edges": pairs})
	if resp, body := doJSON(t, "POST", srv.URL+"/v1/ns/heavy/edges", string(ingestBody)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	resp, body := doJSON(t, "GET", fmt.Sprintf("%s/v1/ns/heavy/query?algo=wkcover&k=%d&refresh=1", srv.URL, k), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s: %s", resp.Status, body)
	}
	var want QueryResult
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	var snapResp snapshotResponse
	resp, body = doJSON(t, "POST", srv.URL+"/v1/ns/heavy/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &snapResp); err != nil {
		t.Fatal(err)
	}
	if !snapResp.Weighted || snapResp.Persisted != path {
		t.Fatalf("snapshot response %+v, want weighted and persisted to %s", snapResp, path)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restarted := NewMulti("")
	defer restarted.Close()
	if restored, err := restarted.RestoreAll(f); err != nil || restored != 1 {
		t.Fatalf("restored %d namespaces, err %v", restored, err)
	}
	e, ok := restarted.Get("heavy")
	if !ok {
		t.Fatal("weighted namespace missing after restart")
	}
	got, err := e.Query(Query{Algo: AlgoWeightedKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedCoverage != want.EstimatedCoverage || !sameIntSets(got.Sets, want.Sets) {
		t.Fatalf("restarted weighted namespace (%v, %v) != pre-restart (%v, %v)",
			got.Sets, got.EstimatedCoverage, want.Sets, want.EstimatedCoverage)
	}
}

// TestHTTPQueryFreshNamespaceWellFormed is the satellite regression: a
// query against a just-created namespace (no edges, no snapshot) must
// return a 200 whose body is valid JSON with the defined empty result —
// sampled_elements 0 and estimated_coverage 0 — not a truncated body
// from a failed NaN encode.
func TestHTTPQueryFreshNamespaceWellFormed(t *testing.T) {
	multi := NewMulti("")
	defer multi.Close()
	srv := httptest.NewServer(NewMultiHandler(multi, HTTPOptions{}))
	defer srv.Close()

	createBody, _ := json.Marshal(map[string]interface{}{"name": "fresh", "num_sets": 20, "k": 3})
	if resp, body := doJSON(t, "POST", srv.URL+"/v1/ns", string(createBody)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s: %s", resp.Status, body)
	}
	for _, algo := range []string{"kcover&k=3", "outliers&lambda=0.25", "greedy"} {
		resp, body := doJSON(t, "GET", srv.URL+"/v1/ns/fresh/query?algo="+algo, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("algo %s on fresh namespace: %s: %s", algo, resp.Status, body)
		}
		if len(bytes.TrimSpace(body)) == 0 {
			t.Fatalf("algo %s: empty body on a 200 response", algo)
		}
		var res QueryResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("algo %s: 200 body is not valid JSON (%q): %v", algo, body, err)
		}
		if res.SampledElements != 0 || res.EstimatedCoverage != 0 || len(res.Sets) != 0 {
			t.Fatalf("algo %s: fresh namespace result %+v, want the empty result", algo, res)
		}
	}
}
