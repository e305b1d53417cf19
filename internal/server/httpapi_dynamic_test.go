package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

// TestHTTPDynamicNamespace drives the dynamic (insert/delete) mode
// through the HTTP plane: namespace creation with "engine": "dynamic"
// (and invalid engine configs as 400s), ops-body ingest, the DELETE
// …/edges route, the insert-all-delete-all acceptance over HTTP (empty
// kcover answer on a fully cancelled stream), the unserved algos as
// 400s, and the state blob's engine header.
func TestHTTPDynamicNamespace(t *testing.T) {
	const n, m, k = 30, 400, 4
	multi := NewMulti("")
	defer multi.Close()
	ts := httptest.NewServer(NewMultiHandler(multi, HTTPOptions{}))
	defer ts.Close()

	// Invalid engine configs are 400s, not namespaces.
	for _, body := range []string{
		`{"name":"bad","num_sets":10,"k":3,"engine":"dynamic","weights":{"table":[1,2]}}`,
		`{"name":"bad","num_sets":10,"k":3,"engine":"turbo"}`,
	} {
		if resp, out := doJSON(t, "POST", ts.URL+"/v1/ns", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/ns %s: got %d (%s), want 400", body, resp.StatusCode, out)
		}
	}

	resp, out := doJSON(t, "POST", ts.URL+"/v1/ns",
		`{"name":"dyn","num_sets":30,"k":4,"eps":0.4,"seed":5,"num_elems":400,"edge_budget":1800,"shards":2,"engine":"dynamic"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create dynamic namespace: got %d: %s", resp.StatusCode, out)
	}
	var info NamespaceInfo
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if info.Engine != ModeDynamic {
		t.Fatalf("created namespace reports engine %q, want dynamic", info.Engine)
	}

	inst := workload.Uniform(n, m, 0.05, 9)
	edges := stream.Drain(stream.Shuffled(inst.G, 2))

	// Ingest everything as an ops body (all inserts), in two batches.
	half := len(edges) / 2
	for _, chunk := range [][]int{{0, half}, {half, len(edges)}} {
		ops := make([][3]uint32, 0, chunk[1]-chunk[0])
		for _, e := range edges[chunk[0]:chunk[1]] {
			ops = append(ops, [3]uint32{0, e.Set, e.Elem})
		}
		body, _ := json.Marshal(ingestRequest{Ops: ops})
		resp, out := doJSON(t, "POST", ts.URL+"/v1/ns/dyn/edges", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ops ingest: %d: %s", resp.StatusCode, out)
		}
	}

	// With everything live, the dynamic answer matches a fresh engine
	// fed the same edges directly.
	refCfg := Config{NumSets: n, NumElems: m, K: k, Eps: 0.4, Seed: 5,
		EdgeBudget: 1800, Shards: 2, Engine: ModeDynamic}
	ref, _ := eqAnswer(t, refCfg, edges, true)
	if len(ref.Sets) == 0 {
		t.Fatal("reference answer is empty; the workload tests nothing")
	}
	resp, out = doJSON(t, "GET", ts.URL+"/v1/ns/dyn/query?algo=kcover&k=4&refresh=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dynamic query: %d: %s", resp.StatusCode, out)
	}
	var qr QueryResult
	if err := json.Unmarshal(out, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Engine != ModeDynamic {
		t.Fatalf("query result engine %q, want dynamic", qr.Engine)
	}
	assertSameAnswer(t, "HTTP dynamic vs direct engine", &qr, ref)

	// The dynamic snapshot is a sketch view, so it serves every
	// unweighted algo; the weighted one is a client error.
	for _, q := range []string{"algo=outliers&lambda=0.2", "algo=greedy"} {
		if resp, out := doJSON(t, "GET", ts.URL+"/v1/ns/dyn/query?"+q, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on dynamic over HTTP: got %d (%s), want 200", q, resp.StatusCode, out)
		}
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/ns/dyn/query?algo=wkcover&k=4", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wkcover on dynamic over HTTP: got %d, want 400", resp.StatusCode)
	}

	// The state blob advertises the dynamic mode and decodes as one.
	sr, err := http.Get(ts.URL + "/v1/ns/dyn/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob := new(bytes.Buffer)
	if _, err := blob.ReadFrom(sr.Body); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: %s", sr.Status)
	}
	if got := sr.Header.Get(HeaderEngine); got != string(ModeDynamic) {
		t.Fatalf("%s = %q, want %q", HeaderEngine, got, ModeDynamic)
	}
	mode, err := refCfg.EngineMode()
	if err != nil {
		t.Fatal(err)
	}
	st, err := mode.ReadState(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().EdgesSeen != int64(len(edges)) {
		t.Fatalf("state blob saw %d ops, want %d", st.Stats().EdgesSeen, len(edges))
	}

	// DELETE …/edges retracts every inserted edge, in batches: the HTTP
	// leg of the insert-all-delete-all acceptance. The net stream is
	// empty, so kcover must answer the empty solution.
	for start := 0; start < len(edges); start += 100 {
		end := start + 100
		if end > len(edges) {
			end = len(edges)
		}
		pairs := make([][2]uint32, 0, end-start)
		for _, e := range edges[start:end] {
			pairs = append(pairs, [2]uint32{e.Set, e.Elem})
		}
		body, _ := json.Marshal(ingestRequest{Edges: pairs})
		resp, out := doJSON(t, "DELETE", ts.URL+"/v1/ns/dyn/edges", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE edges [%d:%d]: %d: %s", start, end, resp.StatusCode, out)
		}
	}
	resp, out = doJSON(t, "GET", ts.URL+"/v1/ns/dyn/query?algo=kcover&k=4&refresh=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after delete-all: %d: %s", resp.StatusCode, out)
	}
	qr = QueryResult{}
	if err := json.Unmarshal(out, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Sets) != 0 || qr.EstimatedCoverage != 0 || qr.SketchCoverage != 0 {
		t.Fatalf("delete-all over HTTP answered %v (coverage %v/%d), want the empty solution",
			qr.Sets, qr.EstimatedCoverage, qr.SketchCoverage)
	}
	var stats Stats
	if resp, out := doJSON(t, "GET", ts.URL+"/v1/ns/dyn/stats", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	} else if err := json.Unmarshal(out, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.IngestedEdges != int64(2*len(edges)) {
		t.Fatalf("ingested_edges %d after insert+delete of %d edges, want %d",
			stats.IngestedEdges, len(edges), 2*len(edges))
	}
}

// TestHTTPDeleteRejectedOnLegacyEngines: the op plane is negotiated per
// engine mode. Append-only namespaces answer 409 Conflict to DELETE and
// to ops bodies carrying deletes, and malformed op bodies are 400s on
// every engine.
func TestHTTPDeleteRejectedOnLegacyEngines(t *testing.T) {
	multi := NewMulti("")
	defer multi.Close()
	ts := httptest.NewServer(NewMultiHandler(multi, HTTPOptions{}))
	defer ts.Close()

	for _, ns := range []string{
		`{"name":"sk","num_sets":10,"k":3,"eps":0.5,"seed":1,"num_elems":100,"engine":"sketch"}`,
		`{"name":"wt","num_sets":10,"k":3,"eps":0.5,"seed":1,"num_elems":100,"weights":{"table":[],"default":1}}`,
	} {
		if resp, out := doJSON(t, "POST", ts.URL+"/v1/ns", ns); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d: %s", resp.StatusCode, out)
		}
	}

	for _, name := range []string{"sk", "wt"} {
		// Insert-only ops bodies are fine on any engine…
		resp, out := doJSON(t, "POST", ts.URL+"/v1/ns/"+name+"/edges",
			`{"ops":[[0,1,2],[0,3,4]]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: insert-only ops body: %d: %s", name, resp.StatusCode, out)
		}
		// …but deletes are a typed conflict, via both routes.
		resp, out = doJSON(t, "POST", ts.URL+"/v1/ns/"+name+"/edges",
			`{"ops":[[1,1,2]]}`)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s: delete op on legacy engine: got %d (%s), want 409", name, resp.StatusCode, out)
		}
		resp, out = doJSON(t, "DELETE", ts.URL+"/v1/ns/"+name+"/edges",
			`{"edges":[[1,2]]}`)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s: DELETE on legacy engine: got %d (%s), want 409", name, resp.StatusCode, out)
		}
		// The rejected mutations must not have landed.
		var stats Stats
		if _, out := doJSON(t, "GET", ts.URL+"/v1/ns/"+name+"/stats", ""); json.Unmarshal(out, &stats) != nil {
			t.Fatal("bad stats body")
		}
		if stats.IngestedEdges != 2 {
			t.Fatalf("%s: ingested_edges = %d after rejected deletes, want 2", name, stats.IngestedEdges)
		}
	}

	// Malformed op bodies: unknown kind, mixed edges+ops, ops on the
	// DELETE route.
	for _, bad := range []struct{ method, body string }{
		{"POST", `{"ops":[[2,1,2]]}`},
		{"POST", `{"edges":[[1,2]],"ops":[[0,3,4]]}`},
		{"DELETE", `{"ops":[[1,1,2]]}`},
	} {
		resp, out := doJSON(t, bad.method, ts.URL+"/v1/ns/sk/edges", bad.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: got %d (%s), want 400", bad.method, bad.body, resp.StatusCode, out)
		}
	}
}
