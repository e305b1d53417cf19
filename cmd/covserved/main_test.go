package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
	"repro/streamcover"
)

// TestRestoreSniffsSnapshotFormats pins covserved's startup path: a v2
// container restores every namespace, while a pre-namespace v1 sketch
// file seeds the bootstrap namespace's Config so the upgraded server
// resumes the old single-dataset state.
func TestRestoreSniffsSnapshotFormats(t *testing.T) {
	cfg := server.Config{NumSets: 20, K: 3, Eps: 0.4, Seed: 5, EdgeBudget: 800, Shards: 2}
	edges := make([]bipartite.Edge, 0, 200)
	for i := 0; i < 200; i++ {
		edges = append(edges, bipartite.Edge{Set: uint32(i % 20), Elem: uint32(i % 97)})
	}

	// A v1 file, as a pre-namespace covserved would have written it.
	src, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if _, err := src.WriteSnapshot(&v1); err != nil {
		t.Fatal(err)
	}
	src.Close()

	bootCfg := cfg
	m1 := server.NewMulti("legacy")
	defer m1.Close()
	if err := restore(m1, v1.Bytes(), &bootCfg); err != nil {
		t.Fatal(err)
	}
	// v1: nothing created yet — the sketch rides the bootstrap config.
	if got := len(m1.List()); got != 0 {
		t.Fatalf("v1 restore created %d namespaces, want 0", got)
	}
	if bootCfg.RestoreState == nil {
		t.Fatal("v1 restore did not seed Config.RestoreState")
	}
	eng, err := m1.Create("legacy", bootCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.IngestedEdges(); got != int64(len(edges)) {
		t.Fatalf("restored bootstrap namespace has %d edges, want %d", got, len(edges))
	}

	// A v2 container with two namespaces.
	m2 := server.NewMulti("")
	a, err := m2.Create("default", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Create("tenant-b", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := m2.WriteSnapshot(&v2); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	freshCfg := cfg
	m3 := server.NewMulti("")
	defer m3.Close()
	if err := restore(m3, v2.Bytes(), &freshCfg); err != nil {
		t.Fatal(err)
	}
	if freshCfg.RestoreState != nil {
		t.Fatal("v2 restore should not touch the bootstrap config")
	}
	infos := m3.List()
	if len(infos) != 2 || infos[0].Name != "default" || infos[1].Name != "tenant-b" {
		t.Fatalf("v2 restore namespaces: %+v", infos)
	}
	if infos[0].IngestedEdges != int64(len(edges)) {
		t.Fatalf("v2 restored default has %d edges, want %d", infos[0].IngestedEdges, len(edges))
	}

	// Garbage is an error, not a silent fresh start.
	if err := restore(server.NewMulti(""), []byte("garbage"), &cfg); err == nil {
		t.Fatal("restore accepted garbage")
	}
}

// TestEndToEndAgainstOfflineKCover is the acceptance test of the service
// subsystem: covserved's handler on a loopback listener, a generated
// instance ingested in batches across 4 shards while queries run
// concurrently, and a final kcover answer that must equal the offline
// single-pass streamcover.MaxCoverage result for the same Options.
func TestEndToEndAgainstOfflineKCover(t *testing.T) {
	const (
		n, m, k = 60, 5000, 6
		seed    = 29
	)
	inst := streamcover.GenerateZipf(n, m, 900, 0.9, 0.7, 17)
	opt := streamcover.Options{Eps: 0.4, Seed: seed, NumElems: m, EdgeBudget: 50 * n}

	offline, err := streamcover.MaxCoverage(inst.EdgeStream(3), n, k, opt)
	if err != nil {
		t.Fatal(err)
	}

	// covserved's namespace directory + multi-tenant handler on a
	// loopback listener, exactly as main() assembles them; the test
	// drives the legacy unprefixed routes, which alias the bootstrap
	// namespace.
	multi := server.NewMulti(server.DefaultNamespace)
	defer multi.Close()
	if _, err := multi.Create(server.DefaultNamespace, server.Config{
		NumSets: n, NumElems: m, K: k,
		Eps: opt.Eps, Seed: opt.Seed, EdgeBudget: opt.EdgeBudget,
		Shards: 4, QueueDepth: 4,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.NewMultiHandler(multi, server.HTTPOptions{})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Collect the edge stream as [set, elem] pairs.
	st := inst.EdgeStream(7)
	var pairs [][2]uint32
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		pairs = append(pairs, [2]uint32{e.Set, e.Elem})
	}

	post := func(batch [][2]uint32) error {
		body, _ := json.Marshal(map[string]interface{}{"edges": batch})
		resp, err := http.Post(base+"/v1/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/edges: %s", resp.Status)
		}
		return nil
	}
	queryKCover := func(refresh bool) (server.QueryResult, error) {
		url := fmt.Sprintf("%s/v1/query?algo=kcover&k=%d", base, k)
		if refresh {
			url += "&refresh=1"
		}
		resp, err := http.Get(url)
		if err != nil {
			return server.QueryResult{}, err
		}
		defer resp.Body.Close()
		var out server.QueryResult
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("GET /v1/query: %s", resp.Status)
		}
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}

	// Ingest in batches from two concurrent producers while querying.
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for p := 0; p < 2; p++ {
		lo, hi := p*len(pairs)/2, (p+1)*len(pairs)/2
		wg.Add(1)
		go func(part [][2]uint32) {
			defer wg.Done()
			for i := 0; i < len(part); i += 251 {
				j := i + 251
				if j > len(part) {
					j = len(part)
				}
				if err := post(part[i:j]); err != nil {
					errc <- err
					return
				}
			}
		}(pairs[lo:hi])
	}
	// Queries must succeed while ingestion is still in progress.
	for q := 0; q < 5; q++ {
		if _, err := queryKCover(true); err != nil {
			t.Fatalf("query during ingest: %v", err)
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Force a final merge, then the answer must equal the offline run.
	resp, err := http.Post(base+"/v1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final, err := queryKCover(false)
	if err != nil {
		t.Fatal(err)
	}
	if final.SnapshotEdges != int64(len(pairs)) {
		t.Fatalf("final snapshot at %d of %d edges", final.SnapshotEdges, len(pairs))
	}
	if final.EstimatedCoverage != offline.EstimatedCoverage {
		t.Fatalf("service coverage %v != offline MaxCoverage %v",
			final.EstimatedCoverage, offline.EstimatedCoverage)
	}
	if len(final.Sets) != len(offline.Sets) {
		t.Fatalf("service sets %v != offline %v", final.Sets, offline.Sets)
	}
	for i := range final.Sets {
		if final.Sets[i] != offline.Sets[i] {
			t.Fatalf("service sets %v != offline %v", final.Sets, offline.Sets)
		}
	}
}

// TestGracefulShutdownCheckpoints runs the real binary: start covserved
// with a WAL and snapshot file, ingest over HTTP, send SIGTERM, and
// require a clean exit that left a restorable checkpoint holding every
// acknowledged edge.
func TestGracefulShutdownCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the covserved binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "covserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building covserved: %v\n%s", err, out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	snap := filepath.Join(dir, "state.snap")
	var stderr bytes.Buffer
	cmd := exec.Command(bin,
		"-n", "20", "-k", "3", "-eps", "0.4", "-seed", "5", "-shards", "2",
		"-addr", addr,
		"-snapshot-file", snap,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-wal-fsync", "off",
	)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v\n%s", err, stderr.Bytes())
		}
		time.Sleep(25 * time.Millisecond)
	}

	const edges = 200
	pairs := make([][2]uint32, edges)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i % 20), uint32(i % 97)}
	}
	body, _ := json.Marshal(map[string]interface{}{"edges": pairs})
	resp, err := http.Post(base+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/edges: %s\n%s", resp.Status, stderr.Bytes())
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("covserved exited with %v\n%s", err, stderr.Bytes())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("covserved did not exit after SIGTERM\n%s", stderr.Bytes())
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatalf("no final snapshot: %v\n%s", err, stderr.Bytes())
	}
	defer f.Close()
	m := server.NewMulti(server.DefaultNamespace)
	defer m.Close()
	if _, err := m.RestoreAll(f); err != nil {
		t.Fatalf("final snapshot does not restore: %v", err)
	}
	e, ok := m.Get(server.DefaultNamespace)
	if !ok {
		t.Fatal("final snapshot lost the bootstrap namespace")
	}
	if got := e.IngestedEdges(); got != edges {
		t.Fatalf("final snapshot holds %d edges, want %d", got, edges)
	}
}

// TestUnreadableSnapshotFileRefusesToStart runs the real binary with a
// snapshot path that exists but cannot be read (a directory, so the read
// fails for root too). Serving empty would let the next checkpoint
// replace the unread state; the process must exit non-zero naming the
// path before it answers a single request.
func TestUnreadableSnapshotFileRefusesToStart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the covserved binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "covserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building covserved: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	snap := filepath.Join(dir, "state.snap")
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-n", "20", "-k", "3", "-addr", addr, "-snapshot-file", snap)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-waited:
			if err == nil {
				t.Fatalf("covserved exited 0 on an unreadable snapshot\n%s", stderr.Bytes())
			}
			if !strings.Contains(stderr.String(), snap) {
				t.Fatalf("exit message does not name %s:\n%s", snap, stderr.Bytes())
			}
			return
		case <-deadline:
			t.Fatalf("covserved neither exited nor served\n%s", stderr.Bytes())
		case <-time.After(25 * time.Millisecond):
			if resp, err := http.Get("http://" + addr + "/v1/healthz"); err == nil {
				resp.Body.Close()
				t.Fatalf("covserved serves an empty state beside an unreadable %s", snap)
			}
		}
	}
}

// TestWireIngestAndMetricsEndToEnd runs the real binary with a wire
// listener: edges go in over the binary protocol (with a mid-stream
// reconnect), a scrape of GET /metrics must expose the namespace and
// wire-plane counters, and the HTTP query plane must account for every
// wire-ingested edge.
func TestWireIngestAndMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the covserved binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "covserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building covserved: %v\n%s", err, out)
	}

	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	addr, wireAddr := reserve(), reserve()

	var stderr bytes.Buffer
	cmd := exec.Command(bin,
		"-n", "20", "-k", "3", "-eps", "0.4", "-seed", "5", "-shards", "2",
		"-addr", addr,
		"-wire-addr", wireAddr,
	)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v\n%s", err, stderr.Bytes())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Wire ingest on a named stream, killed partway and resumed — the
	// real server must carry the watermark across the reconnect.
	edges := make([]streamcover.Edge, 300)
	for i := range edges {
		edges[i] = streamcover.Edge{Set: uint32(i % 20), Elem: uint32(i % 97)}
	}
	hello := streamcover.WireHello{Stream: "smoke", Engine: "sketch"}
	conn, err := streamcover.DialIngest(wireAddr, hello)
	if err != nil {
		t.Fatalf("DialIngest: %v\n%s", err, stderr.Bytes())
	}
	if err := conn.Send(edges[:150]); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Abort()
	redial := time.Now().Add(5 * time.Second)
	for {
		conn, err = streamcover.DialIngest(wireAddr, hello)
		if err == nil {
			break
		}
		if time.Now().After(redial) {
			t.Fatalf("reconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := conn.Handshake().Watermark; got != 150 {
		t.Fatalf("resumed at %d, want 150", got)
	}
	if err := conn.Send(edges[150:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// The HTTP plane sees every wire-ingested edge.
	resp, err := http.Get(base + "/v1/query?algo=kcover&k=3&refresh=1")
	if err != nil {
		t.Fatal(err)
	}
	var q server.QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if q.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("query snapshot at %d of %d wire edges", q.SnapshotEdges, len(edges))
	}

	// /metrics exposes namespace and wire families in text format.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s\n%s", resp.Status, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE covserved_namespaces gauge",
		"# TYPE covserved_ingested_edges_total counter",
		`covserved_ingested_edges_total{ns="default"} 300`,
		`covserved_queries_total{ns="default"} 1`,
		// Exact connection counts are timing-dependent (the reconnect
		// can race the server noticing the aborted stream and retry),
		// so only the families and the exact edge total are pinned.
		"# TYPE covserved_wire_connections_total counter",
		"covserved_wire_edges_total 300",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, body)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("covserved exited with %v\n%s", err, stderr.Bytes())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("covserved did not exit after SIGTERM\n%s", stderr.Bytes())
	}
}
