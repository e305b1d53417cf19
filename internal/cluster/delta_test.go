package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// bindingConfig is testConfig with binding degree caps (k = 2000 puts the
// Algorithm 3 cap, computed at ε/12, at 4 sets per element) and a budget
// small enough that every node evicts.
func bindingConfig() server.Config {
	cfg := testConfig(2)
	cfg.K = 2000
	cfg.EdgeBudget = 600
	return cfg
}

// getState GETs a namespace's state blob from a node with the given
// request headers and returns the response (body closed) and the body.
func getState(t *testing.T, base, ns string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/cluster/sketch?ns="+ns, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func stateBytes(t *testing.T, st server.FrozenState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restartFromSnapshot replaces a node's directory with one restored from
// bytes, as a process restart without its WAL does: the engines are new
// instances, and whatever was ingested after the bytes were written is gone.
func restartFromSnapshot(t *testing.T, tn *testNode, snapshot []byte, peers ...string) {
	t.Helper()
	tn.node.Close()
	tn.multi.Close()
	restored := server.NewMulti(server.DefaultNamespace)
	if _, err := restored.RestoreAll(bytes.NewReader(snapshot)); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(restored, Options{NodeID: "restarted", Peers: peers, PullInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	tn.multi, tn.node = restored, node
	tn.swap.v.Store(NewHandler(node, server.HTTPOptions{}))
}

// TestClusterViewFollowsARecreatedNamespace: the cached cluster view is
// keyed on the local engine instance, not only its snapshot sequence
// number, which restarts at 1 in a re-created namespace. A asks for a
// cluster answer on x, then deletes and re-creates x and ingests a few
// edges; the peer's state is unchanged (its pull answers 304), so only
// the instance tells the two views apart. Once a pull round has seen x
// gone, its view is dropped too.
func TestClusterViewFollowsARecreatedNamespace(t *testing.T) {
	edges := testEdges(t)
	half := len(edges) / 2
	nodes := startCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	for _, tn := range nodes {
		if _, err := tn.multi.Create("x", testConfig(2)); err != nil {
			t.Fatal(err)
		}
	}
	ea, _ := a.multi.Get("x")
	eb, _ := b.multi.Get("x")
	if _, err := ea.Ingest(edges[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Ingest(edges[half:]); err != nil {
		t.Fatal(err)
	}
	if got := queryCluster(t, a, "x", tK); got.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("first cluster view reflects %d of %d edges", got.SnapshotEdges, len(edges))
	}

	recreate := func() []bipartite.Edge {
		if err := a.multi.Delete("x"); err != nil {
			t.Fatal(err)
		}
		e, err := a.multi.Create("x", testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		fresh := edges[:10]
		if _, err := e.Ingest(fresh); err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	fresh := recreate()
	before := a.node.Stats().Peers[0].NotModified
	got := queryCluster(t, a, "x", tK)
	if a.node.Stats().Peers[0].NotModified == before {
		t.Fatal("the peer's unchanged state was pulled again; the test needs a 304")
	}
	ref, err := server.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Ingest(append(append([]bipartite.Edge(nil), fresh...), edges[half:]...)); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapshotEdges != want.SnapshotEdges || got.EstimatedCoverage != want.EstimatedCoverage {
		t.Fatalf("re-created namespace answered from %d edges (estimate %v), the single node from %d (%v)",
			got.SnapshotEdges, got.EstimatedCoverage, want.SnapshotEdges, want.EstimatedCoverage)
	}
	assertSameSets(t, "re-created namespace", got.Sets, want.Sets)

	if err := a.multi.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if err := a.node.PullNow(); err != nil {
		t.Fatal(err)
	}
	a.node.viewMu.Lock()
	_, kept := a.node.views["x"]
	a.node.viewMu.Unlock()
	if kept {
		t.Fatal("a pull round kept the cluster view of a deleted namespace")
	}
}

// deltaCounts sums what one model run exercised.
type deltaCounts struct{ deltas, fulls, folds, rebuilds int64 }

// TestDeltaPullsEqualFullPulls is the model test of the delta exchange.
// Random schedules of ingest on both nodes, local and peer refreshes (two
// in a row now and then, so the pull's base is stale and the pull is
// full), pulls, the peer's namespace deleted (its pull answers 404) and
// re-created, and the peer replaced without its WAL (a new engine
// instance, restored from an older snapshot) run on a two-node cluster,
// with caps that bind and caps that do not. After every step, A's stored
// peer state serializes to the bytes a full pull (no A-IM) returned right
// after A's last pull; after two steps in three, A's cluster view (built
// then, so inputs sometimes move twice between views) serializes to the
// bytes of MergeStates over A's local state and that full peer state.
//
// A failing seed is printed with the schedule that led to it.
func TestDeltaPullsEqualFullPulls(t *testing.T) {
	edges := testEdges(t)
	var total deltaCounts
	for _, c := range []struct {
		name string
		cfg  server.Config
	}{{"loose", testConfig(2)}, {"binding", bindingConfig()}} {
		for seed := uint64(1); seed <= 8; seed++ {
			got := deltaModel(t, fmt.Sprintf("%s/seed=%d", c.name, seed), c.cfg, edges, seed)
			total.deltas += got.deltas
			total.fulls += got.fulls
			total.folds += got.folds
			total.rebuilds += got.rebuilds
		}
	}
	t.Logf("pulls: %d deltas, %d full; views: %d folds, %d rebuilds", total.deltas, total.fulls, total.folds, total.rebuilds)
	if total.deltas == 0 || total.fulls == 0 || total.folds == 0 || total.rebuilds == 0 {
		t.Fatalf("the schedules did not exercise every path: %+v", total)
	}
}

func deltaModel(t *testing.T, name string, cfg server.Config, edges []bipartite.Edge, seed uint64) deltaCounts {
	ns := server.DefaultNamespace
	nodes := startNodes(t, 2, []nsConfig{{ns, cfg}})
	a, b := nodes[0], nodes[1]
	aURL, bURL := "http://"+a.srv.Listener.Addr().String(), "http://"+b.srv.Listener.Addr().String()
	ea, _ := a.multi.Get(ns)
	mode := ea.EngineMode()
	rng := rand.New(rand.NewPCG(seed, 0xde17a))
	var (
		schedule []string
		ref      []byte // B's full blob as of A's last pull; nil when A holds none
	)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (seed %d), after %s: %s", name, seed, strings.Join(schedule, ", "), fmt.Sprintf(format, args...))
	}
	batch := func() []bipartite.Edge {
		lo := rng.IntN(len(edges) - 64)
		return edges[lo : lo+1+rng.IntN(64)]
	}
	ingest := func(e *server.Engine) {
		if _, err := e.Ingest(batch()); err != nil {
			fail("ingest: %v", err)
		}
	}
	refresh := func(e *server.Engine) {
		if _, err := e.Refresh(); err != nil {
			fail("refresh: %v", err)
		}
	}
	for step := 0; step < 60; step++ {
		eb, bLive := b.multi.Get(ns)
		var op string
		switch r := rng.IntN(16); {
		case r < 2:
			op = "ingest A"
			ingest(ea)
		case r < 6:
			op = "ingest B"
			if bLive {
				ingest(eb)
			}
		case r < 7:
			op = "refresh A"
			refresh(ea)
			if rng.IntN(3) == 0 {
				op += " twice"
				ingest(ea)
				refresh(ea)
			}
		case r < 8:
			op = "refresh B"
			if bLive {
				refresh(eb)
				if rng.IntN(2) == 0 {
					op += " twice"
					ingest(eb)
					refresh(eb)
				}
			}
		case r < 14:
			op = "pull"
			if err := a.node.PullNow(); err != nil {
				fail("pull: %v", err)
			}
			// B is idle since the pull, so a full GET returns the state the
			// pull fetched without publishing anything new.
			switch resp, body := getState(t, bURL, ns, nil); resp.StatusCode {
			case http.StatusOK:
				ref = body
			case http.StatusNotFound:
				ref = nil
			default:
				fail("full GET: %s", resp.Status)
			}
		case r < 15:
			if bLive {
				op = "delete B"
				if err := b.multi.Delete(ns); err != nil {
					fail("delete: %v", err)
				}
			} else {
				op = "re-create B"
				e, err := b.multi.Create(ns, cfg)
				if err != nil {
					fail("create: %v", err)
				}
				ingest(e)
			}
		default:
			op = "replace B"
			var snap bytes.Buffer
			if err := b.multi.WriteSnapshot(&snap); err != nil {
				fail("snapshot: %v", err)
			}
			if bLive {
				ingest(eb) // lost with the process
			}
			restartFromSnapshot(t, b, snap.Bytes(), aURL)
		}
		schedule = append(schedule, op)

		var held []byte
		if st := a.node.peers[0].state(ns); st != nil {
			held = stateBytes(t, st.state)
		}
		if !bytes.Equal(held, ref) {
			fail("A holds %d bytes of peer state, a full pull returned %d", len(held), len(ref))
		}
		if rng.IntN(3) == 0 {
			continue // let inputs move more than once before the next view
		}
		local, err := ea.Snapshot()
		if err != nil {
			fail("local snapshot: %v", err)
		}
		view, err := a.node.snapshot(ns, ea, false)
		if err != nil {
			fail("cluster view: %v", err)
		}
		want := local.State()
		if ref != nil {
			peer, err := mode.ReadState(bytes.NewReader(ref))
			if err != nil {
				fail("decoding the full pull: %v", err)
			}
			if want, err = mode.MergeStates([]server.FrozenState{local.State(), peer}, local.IngestedEdges+peer.Stats().EdgesSeen); err != nil {
				fail("reference merge: %v", err)
			}
		}
		if !bytes.Equal(stateBytes(t, view.State()), stateBytes(t, want)) {
			fail("the cluster view differs from the merge of the local state and the full peer state")
		}
	}
	st := a.node.Stats()
	return deltaCounts{
		deltas:   st.Peers[0].Deltas,
		fulls:    st.Peers[0].Pulls - st.Peers[0].Deltas,
		folds:    st.ViewFolds,
		rebuilds: st.ViewRebuilds,
	}
}

// TestDeltaIsNegotiated pins who gets a 226. B publishes two snapshots;
// the second is one delta on the first. Only a request that names the
// first in If-None-Match and asks with A-IM gets the delta; the same
// If-None-Match without A-IM, A-IM naming another base or another
// manipulation, and a plain GET all get the full blob, byte for byte.
// The weighted and dynamic namespaces never answer 226.
func TestDeltaIsNegotiated(t *testing.T) {
	edges := testEdges(t)
	nodes := startCluster(t, 1, 2)
	base := "http://" + nodes[0].srv.Listener.Addr().String()
	for _, ns := range []string{server.DefaultNamespace, "wcov"} {
		e, _ := nodes[0].multi.Get(ns)
		if _, err := e.Ingest(edges[:len(edges)/2]); err != nil {
			t.Fatal(err)
		}
		first, firstBlob := getState(t, base, ns, nil)
		etag := first.Header.Get("ETag")
		if _, err := e.Ingest(edges[len(edges)/2:]); err != nil {
			t.Fatal(err)
		}
		full, blob := getState(t, base, ns, nil) // publishes the second snapshot
		if full.StatusCode != http.StatusOK {
			t.Fatalf("%s: plain GET answered %s", ns, full.Status)
		}
		for _, c := range []struct {
			name string
			hdr  map[string]string
		}{
			{"no A-IM", map[string]string{"If-None-Match": etag}},
			{"other base", map[string]string{"If-None-Match": `"0-1"`, server.HeaderAIM: server.DeltaIM}},
			{"other manipulation", map[string]string{"If-None-Match": etag, server.HeaderAIM: "vcdiff"}},
		} {
			resp, body := getState(t, base, ns, c.hdr)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, blob) || resp.Header.Get(server.HeaderIM) != "" {
				t.Fatalf("%s, %s: got %s with %d bytes, want the full 200 of %d bytes", ns, c.name, resp.Status, len(body), len(blob))
			}
		}
		resp, body := getState(t, base, ns, map[string]string{"If-None-Match": etag, server.HeaderAIM: "gzip, " + server.DeltaIM + ";q=0.5"})
		if ns != server.DefaultNamespace {
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, blob) {
				t.Fatalf("%s: a weighted namespace answered a delta request with %s", ns, resp.Status)
			}
			continue
		}
		if resp.StatusCode != http.StatusIMUsed || resp.Header.Get(server.HeaderIM) != server.DeltaIM ||
			resp.Header.Get(server.HeaderDeltaBase) != etag || resp.Header.Get("ETag") != full.Header.Get("ETag") {
			t.Fatalf("delta request: got %s IM=%q Delta-Base=%q ETag=%q", resp.Status,
				resp.Header.Get(server.HeaderIM), resp.Header.Get(server.HeaderDeltaBase), resp.Header.Get("ETag"))
		}
		if len(body) >= len(blob) {
			t.Fatalf("the delta (%d bytes) is no smaller than the full blob (%d)", len(body), len(blob))
		}
		mode := e.EngineMode()
		held, err := mode.ReadState(bytes.NewReader(firstBlob))
		if err != nil {
			t.Fatal(err)
		}
		delta, err := mode.ReadState(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		folded, err := server.FoldDelta(mode, held, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stateBytes(t, folded), blob) {
			t.Fatal("the first state folded with the delta differs from the full blob")
		}
		// The new ETag is still the way to a 304.
		if resp, _ := getState(t, base, ns, map[string]string{"If-None-Match": full.Header.Get("ETag"), server.HeaderAIM: server.DeltaIM}); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("current ETag with A-IM: got %s, want 304", resp.Status)
		}
	}

	dyn := startDynamicCluster(t, 2)
	e, _ := dyn[1].multi.Get(server.DefaultNamespace)
	for i := 0; i < 3; i++ {
		if _, err := e.Ingest(edges[i*100 : (i+1)*100]); err != nil {
			t.Fatal(err)
		}
		if err := dyn[0].node.PullNow(); err != nil {
			t.Fatal(err)
		}
	}
	if ps := dyn[0].node.Stats().Peers[0]; ps.Pulls != 3 || ps.Deltas != 0 {
		t.Fatalf("dynamic namespace: %d pulls, %d deltas; want 3 full pulls", ps.Pulls, ps.Deltas)
	}
}

// TestDeltaPullRejectsAForeignBase: a 226 is a delta on one state, named
// by its Delta-Base. One that names another state than the one held, or
// that arrives with no state held (so without A-IM), is a data error: it
// is counted as rejected, before its body is read, and the state held
// keeps serving. A peer that ignores A-IM and answers 200 is pulled as
// before.
func TestDeltaPullRejectsAForeignBase(t *testing.T) {
	edges := testEdges(t)
	third := len(edges) / 3
	first := stateBlob(t, testConfig(1), edges[:third])
	second := stateBlob(t, testConfig(1), edges[:2*third])

	fp := &fakePeer{}
	fp.mu.Store(&fakeResp{body: second, etag: `"2"`, sig: "0", deltaBase: `"1"`})
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
	held := func() []byte {
		if st := node.peers[0].state(server.DefaultNamespace); st != nil {
			return stateBytes(t, st.state)
		}
		return nil
	}

	if err := node.PullNow(); err == nil || !strings.Contains(err.Error(), "delta") {
		t.Fatalf("226 with no state held: got %v, want a rejection", err)
	}
	if held() != nil {
		t.Fatal("a delta with no base was stored")
	}
	// A peer that ignores A-IM: plain 200s, the second one to a request
	// that offered a delta.
	fp.mu.Store(&fakeResp{body: first, etag: `"1"`, sig: "0"})
	if err := node.PullNow(); err != nil {
		t.Fatal(err)
	}
	fp.mu.Store(&fakeResp{body: second, etag: `"2"`, sig: "0"})
	if err := node.PullNow(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held(), second) {
		t.Fatal("a 200 answer to a delta request was not stored as the full state")
	}
	fp.mu.Store(&fakeResp{body: first, etag: `"3"`, sig: "0", deltaBase: `"1"`})
	if err := node.PullNow(); err == nil || !strings.Contains(err.Error(), "delta") {
		t.Fatalf("226 on a base not held: got %v, want a rejection", err)
	}
	if !bytes.Equal(held(), second) {
		t.Fatal("a rejected delta replaced the state held")
	}
	if ps := node.Stats().Peers[0]; ps.Rejected != 2 || ps.Pulls != 2 || ps.Deltas != 0 || ps.BytesReceived != int64(len(first)+len(second)) {
		t.Fatalf("after two full pulls and two rejected deltas: %+v", ps)
	}
}

// TestClusterMetrics holds the cluster families on /metrics to the node's
// accounting: a full pull, a delta, a 304 and a rejected pull, the bytes
// they read, the age of the last answer and both kinds of view build.
func TestClusterMetrics(t *testing.T) {
	edges := testEdges(t)
	nodes := startCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	eb, _ := b.multi.Get(server.DefaultNamespace)
	q := server.Query{Algo: server.AlgoKCover, K: tK}
	for i, part := range [][]bipartite.Edge{edges[:100], edges[100:200], nil} {
		if _, err := eb.Ingest(part); err != nil {
			t.Fatal(err)
		}
		if err := a.node.PullNow(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.node.Query(server.DefaultNamespace, q); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	st := a.node.Stats()
	ps := st.Peers[0]
	// Round 1 pulled both namespaces in full, round 2 the default one as a
	// delta and the idle weighted one as a 304, round 3 two 304s.
	if ps.Pulls != 3 || ps.Deltas != 1 || ps.NotModified != 3 || st.ViewRebuilds != 1 || st.ViewFolds != 1 {
		t.Fatalf("unexpected accounting: %+v", st)
	}
	rec := httptest.NewRecorder()
	server.NewMetricsHandler(a.multi, a.node).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	peer := fmt.Sprintf(`peer=%q`, ps.URL)
	for _, want := range []string{
		"# TYPE covserved_cluster_pulls_total counter\n",
		"covserved_cluster_pulls_total{" + peer + `,kind="full"} 2` + "\n",
		"covserved_cluster_pulls_total{" + peer + `,kind="delta"} 1` + "\n",
		"covserved_cluster_pulls_total{" + peer + `,kind="not_modified"} 3` + "\n",
		fmt.Sprintf("covserved_cluster_pull_bytes_total{%s} %d\n", peer, ps.BytesReceived),
		"covserved_cluster_pull_failures_total{" + peer + `,class="transport"} 0` + "\n",
		"covserved_cluster_pull_failures_total{" + peer + `,class="rejected"} 0` + "\n",
		"# TYPE covserved_cluster_last_pull_age_seconds gauge\ncovserved_cluster_last_pull_age_seconds{" + peer + "} ",
		`covserved_cluster_view_builds_total{kind="rebuild"} 1` + "\n",
		`covserved_cluster_view_builds_total{kind="fold"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE covserved_cluster_pulls_total") != 1 {
		t.Fatal("the pulls family is emitted in more than one group")
	}
}

// TestFoldedViewsUnderConcurrentPulls runs queries that share folded
// cluster views while pulls replace A's peer state, B publishes the next
// snapshot while A's pull reads the previous one's delta, and both nodes
// ingest and refresh. Run with -race. At the end the cluster answer is
// the single engine's.
func TestFoldedViewsUnderConcurrentPulls(t *testing.T) {
	const rounds = 30
	edges := testEdges(t)
	nodes := startCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	ns := server.DefaultNamespace
	ea, _ := a.multi.Get(ns)
	eb, _ := b.multi.Get(ns)
	half := len(edges) / 2
	q := server.Query{Algo: server.AlgoKCover, K: tK}
	if err := a.node.PullNow(); err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		done = make(chan struct{}) // closed when the pulls are over
		errs = make(chan error, 16)
	)
	// loop runs f until it fails, for rounds rounds, or — with rounds 0 —
	// until the pulls are over, pausing between calls so that it shares the
	// machine with the tests that run beside it.
	loop := func(rounds int, f func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; rounds == 0 || r < rounds; r++ {
				if rounds == 0 {
					select {
					case <-done:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
				if err := f(r); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		loop(0, func(int) error { _, err := a.node.Query(ns, q); return err })
	}
	// B publishes its next snapshot while A's pull may be reading the
	// delta of the last one, and A's local snapshot moves too.
	loop(0, func(int) error { _, err := eb.Refresh(); return err })
	loop(rounds, func(r int) error {
		if _, err := ea.Ingest(edges[r*16 : r*16+16]); err != nil {
			return err
		}
		_, err := a.node.Query(ns, server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
		return err
	})
	for r := 0; r < rounds; r++ { // A pulls B's delta while B moves
		if _, err := eb.Ingest(edges[half+r*16 : half+r*16+16]); err != nil {
			t.Error(err)
			break
		}
		if err := a.node.PullNow(); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := a.node.Stats(); st.Peers[0].Deltas == 0 || st.ViewFolds == 0 {
		t.Fatalf("no delta or no fold under concurrency: %+v", st)
	}

	if _, err := ea.Ingest(edges[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Ingest(edges[half:]); err != nil {
		t.Fatal(err)
	}
	single, err := server.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	want, err := single.Query(server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	got := queryCluster(t, a, ns, tK)
	assertSameSets(t, "cluster view after the storm", got.Sets, want.Sets)
	if got.SketchCoverage != want.SketchCoverage || got.PStar != want.PStar {
		t.Fatalf("cluster view (%d covered, p*=%v), single engine (%d, %v)",
			got.SketchCoverage, got.PStar, want.SketchCoverage, want.PStar)
	}
}
