package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bipartite"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/weighted"
	"repro/internal/workload"
)

// The e2e instance: generous budgets (EdgeBudget 60n, Eps 0.4) keep the
// effective degree caps from binding; bindingConfig (delta_test.go) covers
// the caps that do.
const (
	tNumSets = 60
	tElems   = 3000
	tK       = 5
	tSeed    = 77
)

func testConfig(shards int) server.Config {
	return server.Config{
		NumSets:    tNumSets,
		K:          tK,
		Eps:        0.4,
		Seed:       tSeed,
		NumElems:   tElems,
		EdgeBudget: 60 * tNumSets,
		Shards:     shards,
	}
}

func testWeights() *server.WeightConfig {
	table := make([]float64, tElems)
	for e := range table {
		table[e] = 1 + float64(e%9)
	}
	return &server.WeightConfig{Table: table}
}

func testEdges(t *testing.T) []bipartite.Edge {
	t.Helper()
	inst := workload.Zipf(tNumSets, tElems, 400, 0.9, 0.7, 5)
	edges := stream.Drain(stream.Shuffled(inst.G, 9))
	if len(edges) == 0 {
		t.Fatal("empty workload")
	}
	return edges
}

// swapHandler lets a test replace a node's HTTP handler in place, so a
// "restarted" node keeps its address — the peer URLs other nodes were
// configured with stay valid, exactly like a process restart behind a
// stable host:port.
type swapHandler struct{ v atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(http.Handler).ServeHTTP(w, r)
}

// testNode is one in-process cluster member.
type testNode struct {
	multi *server.Multi
	node  *Node
	srv   *httptest.Server
	swap  *swapHandler
}

func (tn *testNode) close() {
	if tn.node != nil {
		tn.node.Close()
	}
	if tn.multi != nil {
		tn.multi.Close()
	}
	if tn.srv != nil {
		tn.srv.Close()
	}
}

// startCluster brings up size nodes, each with an unweighted "default"
// namespace and a weighted "wcov" namespace, wired to each other as
// peers. The pull loop is disabled (PullInterval < 0): tests drive
// anti-entropy explicitly through PullNow for determinism.
func startCluster(t *testing.T, size, shards int) []*testNode {
	t.Helper()
	wcfg := testConfig(shards)
	wcfg.Weights = testWeights()
	return startNodes(t, size, []nsConfig{{server.DefaultNamespace, testConfig(shards)}, {"wcov", wcfg}})
}

// nsConfig is one namespace every node of a test cluster starts with.
type nsConfig struct {
	name string
	cfg  server.Config
}

// startNodes is startCluster with the namespaces given.
func startNodes(t *testing.T, size int, namespaces []nsConfig) []*testNode {
	t.Helper()
	nodes := make([]*testNode, size)
	urls := make([]string, size)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &testNode{srv: srv, swap: &swapHandler{}}
		urls[i] = "http://" + srv.Listener.Addr().String()
	}
	for i, tn := range nodes {
		tn.multi = server.NewMulti(server.DefaultNamespace)
		for _, ns := range namespaces {
			if _, err := tn.multi.Create(ns.name, ns.cfg); err != nil {
				t.Fatal(err)
			}
		}
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node, err := NewNode(tn.multi, Options{
			NodeID:       fmt.Sprintf("node-%d", i),
			Peers:        peers,
			PullInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		tn.swap.v.Store(NewHandler(node, server.HTTPOptions{}))
		tn.srv.Config.Handler = tn.swap
		tn.srv.Start()
		t.Cleanup(tn.close)
	}
	return nodes
}

// ingestPartitioned round-robins the edge stream across the nodes —
// each node sees only its partition, the cluster together sees all.
func ingestPartitioned(t *testing.T, nodes []*testNode, ns string, edges []bipartite.Edge) {
	t.Helper()
	for i, tn := range nodes {
		e, ok := tn.multi.Get(ns)
		if !ok {
			t.Fatalf("node %d: namespace %q missing", i, ns)
		}
		var part []bipartite.Edge
		for j := i; j < len(edges); j += len(nodes) {
			part = append(part, edges[j])
		}
		if _, err := e.Ingest(part); err != nil {
			t.Fatal(err)
		}
	}
}

func queryCluster(t *testing.T, tn *testNode, ns string, k int) *server.QueryResult {
	t.Helper()
	if err := tn.node.PullNow(); err != nil {
		t.Fatalf("PullNow: %v", err)
	}
	res, err := tn.node.Query(ns, server.Query{Algo: server.AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameSets(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: sets %v != %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sets %v != %v", label, got, want)
		}
	}
}

// TestClusterMatchesSingleNodeWithBindingCaps: with a degree cap that
// binds (D = 4) and a budget both nodes evict at, the cluster view of a
// two-node cluster of two-shard nodes fed a partition of the stream is,
// on either node, the bytes of a one-shard node fed all of it, and every
// k gets the same answer: every sketch of an edge set keeps an element's
// D smallest set ids, whichever node and shard saw them.
func TestClusterMatchesSingleNodeWithBindingCaps(t *testing.T) {
	edges := testEdges(t)
	ns := server.DefaultNamespace
	cfg := bindingConfig()
	if d := cfg.Params().EffectiveDegreeCap(); d != 4 {
		t.Fatalf("degree cap %d, want 4", d)
	}
	nodes := startNodes(t, 2, []nsConfig{{ns, cfg}})
	ingestPartitioned(t, nodes, ns, edges)
	cfg.Shards = 1
	single, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	snap, err := single.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State().Stats().PStar >= 1 {
		t.Fatal("the single node did not evict; lower the budget")
	}
	for i, tn := range nodes {
		if err := tn.node.PullNow(); err != nil {
			t.Fatal(err)
		}
		e, _ := tn.multi.Get(ns)
		if _, err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
		view, err := tn.node.snapshot(ns, e, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stateBytes(t, view.State()), stateBytes(t, snap.State())) {
			t.Fatalf("node %d: the cluster view differs from the single node's state", i)
		}
		for k := 1; k <= 12; k++ {
			want, err := single.Query(server.Query{Algo: server.AlgoKCover, K: k})
			if err != nil {
				t.Fatal(err)
			}
			got := queryCluster(t, tn, ns, k)
			assertSameSets(t, fmt.Sprintf("node %d k=%d", i, k), got.Sets, want.Sets)
		}
	}
}

// TestClusterMatchesOffline is the tentpole e2e: a 3-node cluster with
// partitioned ingest answers — from any node, for both an unweighted
// and a weighted namespace — bit-identically to a single node fed the
// whole stream and to the offline one-pass algorithms, across shard
// counts, and still after a node restarts from its snapshot.
func TestClusterMatchesOffline(t *testing.T) {
	edges := testEdges(t)
	opt := algorithms.Options{Eps: 0.4, Seed: tSeed, NumElems: tElems, EdgeBudget: 60 * tNumSets}
	offline, err := algorithms.KCover(stream.NewSlice(edges), tNumSets, tK, opt)
	if err != nil {
		t.Fatal(err)
	}
	wopt := weighted.Options{Eps: 0.4, Seed: tSeed, NumElems: tElems, EdgeBudget: 60 * tNumSets}
	woffline, err := weighted.KCover(stream.NewSlice(edges), tNumSets, tK, testWeights().WeightOf, wopt)
	if err != nil {
		t.Fatal(err)
	}

	// Single node fed the whole stream, as the middle term of the
	// cluster == single-node == offline chain.
	single, err := server.New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	sres, err := single.Query(server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSets(t, "single vs offline", sres.Sets, offline.Sets)
	if sres.EstimatedCoverage != offline.EstimatedCoverage {
		t.Fatalf("single estimate %v != offline %v", sres.EstimatedCoverage, offline.EstimatedCoverage)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			nodes := startCluster(t, 3, shards)
			ingestPartitioned(t, nodes, server.DefaultNamespace, edges)
			ingestPartitioned(t, nodes, "wcov", edges)

			for i, tn := range nodes {
				res := queryCluster(t, tn, server.DefaultNamespace, tK)
				assertSameSets(t, fmt.Sprintf("node %d", i), res.Sets, offline.Sets)
				if res.EstimatedCoverage != offline.EstimatedCoverage {
					t.Fatalf("node %d estimate %v != offline %v", i, res.EstimatedCoverage, offline.EstimatedCoverage)
				}
				if res.SnapshotEdges != int64(len(edges)) {
					t.Fatalf("node %d cluster view reflects %d of %d edges", i, res.SnapshotEdges, len(edges))
				}
				wres := queryCluster(t, tn, "wcov", tK)
				assertSameSets(t, fmt.Sprintf("node %d weighted", i), wres.Sets, woffline.Sets)
				if wres.EstimatedCoverage != woffline.EstimatedCoverage {
					t.Fatalf("node %d weighted estimate %v != offline %v", i, wres.EstimatedCoverage, woffline.EstimatedCoverage)
				}
				if !wres.Weighted {
					t.Fatalf("node %d weighted query did not run the weighted plane", i)
				}
			}

			// The cluster query must also hold over the HTTP surface.
			resp, err := http.Get(nodes[0].srv.URL + fmt.Sprintf("/v1/query?algo=kcover&k=%d&refresh=1", tK))
			if err != nil {
				t.Fatal(err)
			}
			var hres server.QueryResult
			if err := json.NewDecoder(resp.Body).Decode(&hres); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP query: %d", resp.StatusCode)
			}
			assertSameSets(t, "HTTP query", hres.Sets, offline.Sets)

			if shards != 2 {
				return
			}
			// Restart node 1 from its own snapshot: persist the directory,
			// tear the node down, rebuild from the bytes at the same
			// address, and require the exact cluster answer again — from
			// the restarted node (after it re-pulls its peers) and from the
			// survivors (their cached remote state still describes it).
			var buf bytes.Buffer
			if err := nodes[1].multi.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			nodes[1].node.Close()
			nodes[1].multi.Close()

			restored := server.NewMulti(server.DefaultNamespace)
			if _, err := restored.RestoreAll(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			var peers []string
			for j, other := range nodes {
				if j != 1 {
					peers = append(peers, "http://"+other.srv.Listener.Addr().String())
				}
			}
			node, err := NewNode(restored, Options{NodeID: "node-1r", Peers: peers, PullInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			nodes[1].multi, nodes[1].node = restored, node
			nodes[1].swap.v.Store(NewHandler(node, server.HTTPOptions{}))

			for i, tn := range nodes {
				for _, ns := range []string{server.DefaultNamespace, "wcov"} {
					res := queryCluster(t, tn, ns, tK)
					want := offline.Sets
					if ns == "wcov" {
						want = woffline.Sets
					}
					assertSameSets(t, fmt.Sprintf("post-restart node %d ns %s", i, ns), res.Sets, want)
					if res.SnapshotEdges != int64(len(edges)) {
						t.Fatalf("post-restart node %d ns %s reflects %d of %d edges", i, ns, res.SnapshotEdges, len(edges))
					}
				}
			}
		})
	}
}

// TestClusterBackgroundLoop covers the ticker path: with a short pull
// interval and no explicit PullNow, a node converges to its peer's
// edges by itself.
func TestClusterBackgroundLoop(t *testing.T) {
	edges := testEdges(t)
	nodes := startCluster(t, 2, 2)
	// Replace node 1's cluster node with one that has a live loop.
	nodes[1].node.Close()
	node, err := NewNode(nodes[1].multi, Options{
		NodeID:       "looper",
		Peers:        []string{"http://" + nodes[0].srv.Listener.Addr().String()},
		PullInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[1].node = node

	e0, _ := nodes[0].multi.Get(server.DefaultNamespace)
	if _, err := e0.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := node.Query(server.DefaultNamespace, server.Query{Algo: server.AlgoKCover, K: tK})
		if err != nil {
			t.Fatal(err)
		}
		if res.SnapshotEdges == int64(len(edges)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop never converged: view has %d of %d edges", res.SnapshotEdges, len(edges))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterUnreachablePeer pins the graceful-degradation contract: a
// dead peer makes pulls fail (counted, backed off) but never blocks or
// breaks queries — the node serves its local state.
func TestClusterUnreachablePeer(t *testing.T) {
	edges := testEdges(t)
	m := server.NewMulti(server.DefaultNamespace)
	defer m.Close()
	if _, err := m.Create(server.DefaultNamespace, testConfig(2)); err != nil {
		t.Fatal(err)
	}
	e, _ := m.Default()
	if _, err := e.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(m, Options{
		Peers:        []string{"http://127.0.0.1:1"}, // reserved port: refused
		PullInterval: -1,
		Client:       &http.Client{Timeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if err := node.PullNow(); err == nil {
		t.Fatal("PullNow against a dead peer should error")
	}
	res, err := node.Query(server.DefaultNamespace, server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
	if err != nil {
		t.Fatalf("query must serve local state despite the dead peer: %v", err)
	}
	if res.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("local answer reflects %d of %d edges", res.SnapshotEdges, len(edges))
	}
	st := node.Stats()
	if st.Peers[0].Failures < 1 || st.Peers[0].ConsecutiveFailures < 1 {
		t.Fatalf("dead peer not counted: %+v", st.Peers[0])
	}
	if st.Peers[0].NextAttempt.IsZero() {
		t.Fatal("transport failure should arm the backoff window")
	}
	// The ticker path honors the window: a round inside it skips the peer.
	before := st.Peers[0].Failures
	if err := node.pull(true); err != nil {
		t.Fatalf("backed-off round should skip, not fail: %v", err)
	}
	if after := node.Stats().Peers[0].Failures; after != before {
		t.Fatalf("backed-off peer was probed anyway (failures %d -> %d)", before, after)
	}
}

// fakePeer serves raw bytes with the cluster state headers, letting the
// failure tests hand a node precisely corrupted responses.
type fakePeer struct {
	mu      atomic.Pointer[fakeResp]
	weights bool
}

type fakeResp struct {
	body []byte
	etag string
	sig  string
	// deltaBase, when set, makes the answer a 226 delta on that ETag,
	// whatever the request asked for.
	deltaBase string
}

func (f *fakePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp := f.mu.Load()
	w.Header().Set("ETag", resp.etag)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(server.HeaderWeightsSig, resp.sig)
	if f.weights {
		w.Header().Set(server.HeaderWeighted, "1")
	}
	if r.Header.Get("If-None-Match") == resp.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if resp.deltaBase != "" {
		w.Header().Set(server.HeaderIM, server.DeltaIM)
		w.Header().Set(server.HeaderDeltaBase, resp.deltaBase)
		w.WriteHeader(http.StatusIMUsed)
	}
	w.Write(resp.body)
}

// stateBlob serializes the merged state of a throwaway engine fed the
// given edges — a byte-accurate peer response.
func stateBlob(t *testing.T, cfg server.Config, edges []bipartite.Edge) []byte {
	t.Helper()
	e, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(edges) > 0 {
		if _, err := e.Ingest(edges); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterTruncatedBlob pins the decode-isolation contract: a
// mid-stream truncated state blob is rejected with a counted error and
// the previous good remote state keeps serving — the local engine and
// the cluster view are never poisoned.
func TestClusterTruncatedBlob(t *testing.T) {
	edges := testEdges(t)
	half := len(edges) / 2
	good := stateBlob(t, testConfig(1), edges[:half])

	fp := &fakePeer{}
	fp.mu.Store(&fakeResp{body: good, etag: `"good"`, sig: "0"})
	srv := httptest.NewServer(fp)
	defer srv.Close()

	m := server.NewMulti(server.DefaultNamespace)
	defer m.Close()
	if _, err := m.Create(server.DefaultNamespace, testConfig(1)); err != nil {
		t.Fatal(err)
	}
	e, _ := m.Default()
	if _, err := e.Ingest(edges[half:]); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(m, Options{Peers: []string{srv.URL}, PullInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if err := node.PullNow(); err != nil {
		t.Fatalf("good pull failed: %v", err)
	}
	res, err := node.Query(server.DefaultNamespace, server.Query{Algo: server.AlgoKCover, K: tK})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("view reflects %d of %d edges", res.SnapshotEdges, len(edges))
	}

	// The peer now serves a truncated blob under a fresh ETag.
	fp.mu.Store(&fakeResp{body: good[:len(good)/3], etag: `"trunc"`, sig: "0"})
	err = node.PullNow()
	if err == nil || !strings.Contains(err.Error(), "decoding sketch") {
		t.Fatalf("truncated blob: got %v, want a decode rejection", err)
	}
	st := node.Stats()
	if st.Peers[0].Rejected < 1 {
		t.Fatalf("truncated blob not counted as rejected: %+v", st.Peers[0])
	}
	res2, err := node.Query(server.DefaultNamespace, server.Query{Algo: server.AlgoKCover, K: tK})
	if err != nil {
		t.Fatal(err)
	}
	if res2.SnapshotEdges != res.SnapshotEdges {
		t.Fatalf("rejected blob changed the view: %d -> %d edges", res.SnapshotEdges, res2.SnapshotEdges)
	}
	assertSameSets(t, "post-rejection view", res2.Sets, res.Sets)
}

// TestClusterConfigMismatch pins the validation order: a peer serving
// the namespace with a different weight table (signature), a different
// mode, or different sketch parameters is rejected with a counted
// error and nothing is merged.
func TestClusterConfigMismatch(t *testing.T) {
	wcfg := testConfig(1)
	wcfg.Weights = testWeights()

	t.Run("weights-signature", func(t *testing.T) {
		otherW := testConfig(1)
		otherW.Weights = &server.WeightConfig{Default: 2.5} // different table
		fp := &fakePeer{weights: true}
		fp.mu.Store(&fakeResp{
			body: stateBlob(t, otherW, nil),
			etag: `"w"`,
			sig:  fmt.Sprint(otherW.Weights.Signature()),
		})
		srv := httptest.NewServer(fp)
		defer srv.Close()

		m := server.NewMulti(server.DefaultNamespace)
		defer m.Close()
		if _, err := m.Create(server.DefaultNamespace, wcfg); err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(m, Options{Peers: []string{srv.URL}, PullInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		err = node.PullNow()
		if err == nil || !strings.Contains(err.Error(), "weight config mismatch") {
			t.Fatalf("got %v, want weight config mismatch", err)
		}
		if st := node.Stats(); st.Peers[0].Rejected < 1 || len(st.Peers[0].Namespaces) != 0 {
			t.Fatalf("mismatched weights merged anyway: %+v", st.Peers[0])
		}
	})

	t.Run("mode", func(t *testing.T) {
		fp := &fakePeer{} // peer claims unweighted
		fp.mu.Store(&fakeResp{body: stateBlob(t, testConfig(1), nil), etag: `"m"`, sig: "0"})
		srv := httptest.NewServer(fp)
		defer srv.Close()

		m := server.NewMulti(server.DefaultNamespace)
		defer m.Close()
		if _, err := m.Create(server.DefaultNamespace, wcfg); err != nil { // local weighted
			t.Fatal(err)
		}
		node, err := NewNode(m, Options{Peers: []string{srv.URL}, PullInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		err = node.PullNow()
		if err == nil || !strings.Contains(err.Error(), "mode mismatch") {
			t.Fatalf("got %v, want mode mismatch", err)
		}
	})

	t.Run("sketch-params", func(t *testing.T) {
		other := testConfig(1)
		other.Eps = 0.9 // different sketch geometry
		fp := &fakePeer{}
		fp.mu.Store(&fakeResp{body: stateBlob(t, other, nil), etag: `"p"`, sig: "0"})
		srv := httptest.NewServer(fp)
		defer srv.Close()

		m := server.NewMulti(server.DefaultNamespace)
		defer m.Close()
		if _, err := m.Create(server.DefaultNamespace, testConfig(1)); err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(m, Options{Peers: []string{srv.URL}, PullInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		err = node.PullNow()
		if err == nil || !strings.Contains(err.Error(), "parameter mismatch") {
			t.Fatalf("got %v, want parameter mismatch", err)
		}
		if st := node.Stats(); st.Peers[0].Rejected < 1 {
			t.Fatalf("param mismatch not counted: %+v", st.Peers[0])
		}
	})
}

// TestClusterETagShortCircuit pins the anti-entropy steady state: an
// unchanged peer costs one conditional request (304, no body) and the
// cluster view is reused rather than re-merged.
func TestClusterETagShortCircuit(t *testing.T) {
	edges := testEdges(t)
	nodes := startCluster(t, 2, 2)
	ingestPartitioned(t, nodes, server.DefaultNamespace, edges)

	n0 := nodes[0].node
	if err := n0.PullNow(); err != nil {
		t.Fatal(err)
	}
	st := n0.Stats()
	if st.Peers[0].Pulls < 1 {
		t.Fatalf("first pull fetched nothing: %+v", st.Peers[0])
	}
	if err := n0.PullNow(); err != nil {
		t.Fatal(err)
	}
	st = n0.Stats()
	if st.Peers[0].NotModified < 1 {
		t.Fatalf("unchanged peer not short-circuited: %+v", st.Peers[0])
	}

	q := server.Query{Algo: server.AlgoKCover, K: tK}
	if _, err := n0.Query(server.DefaultNamespace, q); err != nil {
		t.Fatal(err)
	}
	if _, err := n0.Query(server.DefaultNamespace, q); err != nil {
		t.Fatal(err)
	}
	st = n0.Stats()
	if st.ViewRebuilds < 1 || st.ViewReuses < 1 {
		t.Fatalf("view cache not exercised: rebuilds=%d reuses=%d", st.ViewRebuilds, st.ViewReuses)
	}
}

// TestClusterQueriesAreCounted: a query answered from the cluster view is
// a query of the namespace — it moves the engine's Queries (and so
// covserved_queries_total on a node with peers) — and the cached view runs
// its greedy once like any snapshot: a repeat and a smaller k on an
// unchanged view need no new pick, on the sketch and the weighted route.
// The view's graph work is the namespace's too: the first view's graph is
// one full build, and the view a delta pull folds carries it forward, one
// graph fold.
func TestClusterQueriesAreCounted(t *testing.T) {
	edges := testEdges(t)
	nodes := startCluster(t, 2, 2)
	for _, ns := range []string{server.DefaultNamespace, "wcov"} {
		ingestPartitioned(t, nodes, ns, edges)
	}
	n0 := nodes[0].node
	if err := n0.PullNow(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{server.DefaultNamespace, "wcov"} {
		e, _ := nodes[0].multi.Get(ns)
		var first *server.QueryResult
		for i, k := range []int{tK, tK, tK - 2} {
			res, err := n0.Query(ns, server.Query{Algo: server.AlgoKCover, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res
			}
			assertSameSets(t, fmt.Sprintf("%s ask %d (k=%d)", ns, i, k), res.Sets, first.Sets[:k])
			if c := e.Counters(); c.Queries != int64(i+1) || c.QueryCacheHits != int64(i) {
				t.Fatalf("%s after %d cluster queries: queries=%d hits=%d, want %d and %d",
					ns, i+1, c.Queries, c.QueryCacheHits, i+1, i)
			}
			if c := e.Counters(); c.GraphBuilds != 1 || c.GraphFolds != 0 || c.MaterializeNanos <= 0 {
				t.Fatalf("%s after %d cluster queries: %d graph builds, %d folds, %d ns; want the view's one build",
					ns, i+1, c.GraphBuilds, c.GraphFolds, c.MaterializeNanos)
			}
		}
		if _, err := n0.Query(ns, server.Query{Algo: server.AlgoKCover}); err == nil {
			t.Fatalf("%s: a kcover query without k was answered", ns)
		}
		if c := e.Counters(); c.Queries != 3 {
			t.Fatalf("%s: a rejected query was counted (queries=%d)", ns, c.Queries)
		}
	}
	if st := n0.Stats(); st.ViewRebuilds != 2 {
		t.Fatalf("%d view rebuilds over two namespaces: the queries did not share their view", st.ViewRebuilds)
	}

	// The peer takes node 0's half too (edges new to it), and the pull
	// brings them as a delta that the next view folds.
	var other []bipartite.Edge
	for j := 0; j < len(edges); j += len(nodes) {
		other = append(other, edges[j])
	}
	e1, _ := nodes[1].multi.Get(server.DefaultNamespace)
	if _, err := e1.Ingest(other); err != nil {
		t.Fatal(err)
	}
	if err := n0.PullNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := n0.Query(server.DefaultNamespace, server.Query{Algo: server.AlgoKCover, K: tK}); err != nil {
		t.Fatal(err)
	}
	e, _ := nodes[0].multi.Get(server.DefaultNamespace)
	if st, c := n0.Stats(), e.Counters(); st.Peers[0].Deltas != 1 || st.ViewFolds != 1 || c.GraphBuilds != 1 || c.GraphFolds != 1 {
		t.Fatalf("after a delta pull and a query: %d deltas, %d view folds, %d graph builds, %d graph folds; want one fold of each and the first build",
			st.Peers[0].Deltas, st.ViewFolds, c.GraphBuilds, c.GraphFolds)
	}
}

// TestClusterPullSeesReplacedPeerEngine: the state ETag identifies the
// engine, not just its edge count. B ingests N edges and A pulls; B's
// namespace is then replaced by a fresh engine that reaches the same
// count with N other edges (a restart without a WAL, or a delete +
// re-create). A's next pull must fetch the new state instead of
// validating the dead engine's with a 304.
func TestClusterPullSeesReplacedPeerEngine(t *testing.T) {
	edges := testEdges(t)
	half := len(edges) / 2
	first, second := edges[:half], edges[half:2*half]
	nodes := startCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]

	// reference answers a node holding exactly one of the halves gives.
	ref := func(part []bipartite.Edge) *server.QueryResult {
		e, err := server.New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Ingest(part); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantFirst, wantSecond := ref(first), ref(second)
	if wantFirst.EstimatedCoverage == wantSecond.EstimatedCoverage {
		t.Fatal("the two halves answer alike; the test cannot tell them apart")
	}

	eng, _ := b.multi.Get(server.DefaultNamespace)
	if _, err := eng.Ingest(first); err != nil {
		t.Fatal(err)
	}
	got := queryCluster(t, a, server.DefaultNamespace, tK)
	assertSameSets(t, "before replacement", got.Sets, wantFirst.Sets)

	if err := b.multi.Delete(server.DefaultNamespace); err != nil {
		t.Fatal(err)
	}
	eng, err := b.multi.Create(server.DefaultNamespace, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(second); err != nil {
		t.Fatal(err)
	}
	got = queryCluster(t, a, server.DefaultNamespace, tK)
	assertSameSets(t, "after replacement", got.Sets, wantSecond.Sets)
	if got.EstimatedCoverage != wantSecond.EstimatedCoverage {
		t.Fatalf("A still answers from the replaced engine's state: estimate %v, want %v",
			got.EstimatedCoverage, wantSecond.EstimatedCoverage)
	}
}

// TestClusterHandlerMethods is the table-driven method/Content-Type
// discipline check for the cluster routes and the binary snapshot GET.
func TestClusterHandlerMethods(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	base := nodes[0].srv.URL

	for _, c := range []struct{ method, path, allow string }{
		{"POST", "/v1/cluster/sketch", "GET, HEAD"},
		{"DELETE", "/v1/cluster/stats", "GET"},
		{"GET", "/v1/cluster/pull", "POST"},
		{"PUT", "/v1/query", "GET"},
		{"POST", "/v1/ns/default/query", "GET"},
		{"DELETE", "/v1/snapshot", "GET, POST"},
		{"DELETE", "/v1/ns/default/snapshot", "GET, POST"},
	} {
		req, _ := http.NewRequest(c.method, base+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: got %d want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow = %q want %q", c.method, c.path, got, c.allow)
		}
	}

	for _, path := range []string{"/v1/cluster/sketch", "/v1/snapshot", "/v1/ns/default/snapshot"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("GET %s: Content-Type = %q", path, ct)
		}
		if resp.Header.Get("ETag") == "" {
			t.Fatalf("GET %s: missing ETag", path)
		}
	}

	resp, err := http.Get(base + "/v1/cluster/sketch?ns=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown namespace: got %d want 404", resp.StatusCode)
	}

	// The sketch endpoint identifies its node and honors If-None-Match.
	resp, err = http.Get(base + "/v1/cluster/sketch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.HeaderNodeID); got != "node-0" {
		t.Fatalf("X-Cov-Node = %q", got)
	}
	req, _ := http.NewRequest("GET", base+"/v1/cluster/sketch", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: got %d want 304", resp2.StatusCode)
	}
}
