package cluster

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/weighted"
)

// TestBackoffJitter pins the deterministic per-(node, peer) backoff
// jitter: reproducible, bounded below ¼, well spread across pairs, and
// actually applied to the retry window.
func TestBackoffJitter(t *testing.T) {
	a := backoffJitter("node-0", "http://peer:1")
	if b := backoffJitter("node-0", "http://peer:1"); b != a {
		t.Fatalf("jitter not deterministic: %v != %v", a, b)
	}
	seen := make(map[float64]bool)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			v := backoffJitter(fmt.Sprintf("node-%d", i), fmt.Sprintf("http://peer-%d:7070", j))
			if v < 0 || v >= 0.25 {
				t.Fatalf("jitter %v outside [0, 0.25)", v)
			}
			seen[v] = true
		}
	}
	// 64 pairs into 1024 buckets: collisions happen, lockstep does not.
	if len(seen) < 32 {
		t.Fatalf("jitter poorly spread: %d distinct values over 64 pairs", len(seen))
	}

	// fail() shortens each window by the peer's fraction — never past the
	// cap, and the exponential shape is preserved underneath.
	for _, c := range []struct {
		jitter     float64
		fails      int
		wantWindow time.Duration
	}{
		{0, 1, time.Second},
		{0.25, 1, 750 * time.Millisecond},
		{0.25, 3, 3 * time.Second}, // 4s doubled window, minus ¼
	} {
		p := &peer{jitter: c.jitter, ns: make(map[string]*remoteState)}
		p.consecFails = c.fails - 1
		before := time.Now()
		p.fail(fmt.Errorf("down"), true, time.Second, 30*time.Second)
		got := p.nextAttempt.Sub(before)
		if got < c.wantWindow || got > c.wantWindow+100*time.Millisecond {
			t.Fatalf("jitter %v after %d fails: window %v, want ~%v", c.jitter, c.fails, got, c.wantWindow)
		}
	}
}

// startDurableCluster is startCluster with the durability plane armed:
// each node's namespaces run over a write-ahead log in that node's own
// root directory. Returns the nodes and the per-node WAL templates (for
// rebuilding a node after a crash).
func startDurableCluster(t *testing.T, size, shards int) ([]*testNode, []*server.WALConfig) {
	t.Helper()
	nodes := make([]*testNode, size)
	urls := make([]string, size)
	durs := make([]*server.WALConfig, size)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &testNode{srv: srv, swap: &swapHandler{}}
		urls[i] = "http://" + srv.Listener.Addr().String()
		durs[i] = &server.WALConfig{Dir: t.TempDir(), Fsync: "off"}
	}
	for i, tn := range nodes {
		tn.multi = server.NewMulti(server.DefaultNamespace)
		tn.multi.SetDurability(durs[i])
		if _, err := tn.multi.Create(server.DefaultNamespace, testConfig(shards)); err != nil {
			t.Fatal(err)
		}
		wcfg := testConfig(shards)
		wcfg.Weights = testWeights()
		if _, err := tn.multi.Create("wcov", wcfg); err != nil {
			t.Fatal(err)
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
	return nodes, durs
}

// restartNode rebuilds a crashed node from restored at the same address
// (swapHandler keeps the peer URLs of the survivors valid).
func restartNode(t *testing.T, nodes []*testNode, i int, restored *server.Multi) {
	t.Helper()
	var peers []string
	for j, other := range nodes {
		if j != i {
			peers = append(peers, "http://"+other.srv.Listener.Addr().String())
		}
	}
	node, err := NewNode(restored, Options{
		NodeID:       fmt.Sprintf("node-%dr", i),
		Peers:        peers,
		PullInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[i].multi, nodes[i].node = restored, node
	nodes[i].swap.v.Store(NewHandler(node, server.HTTPOptions{}))
}

// TestClusterCrashRecovery is the durability e2e: a 3-node durable
// cluster with partitioned ingest loses two nodes and rebuilds them
// from disk — node 1 from its checkpoint container plus WAL tail, node
// 2 (which never snapshotted) from config sidecars and full WAL replay
// — and every node then answers both namespaces bit-identically to the
// offline one-pass run over the whole stream.
func TestClusterCrashRecovery(t *testing.T) {
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

	nodes, durs := startDurableCluster(t, 3, 2)
	half := len(edges) / 2
	ingestPartitioned(t, nodes, server.DefaultNamespace, edges[:half])
	ingestPartitioned(t, nodes, "wcov", edges[:half])

	// Node 1 checkpoints mid-stream: its container covers the first half,
	// the second half lives only in its WAL tail.
	snapPath := filepath.Join(t.TempDir(), "node1.snap")
	if err := server.CheckpointMulti(nodes[1].multi, snapPath); err != nil {
		t.Fatalf("CheckpointMulti: %v", err)
	}

	ingestPartitioned(t, nodes, server.DefaultNamespace, edges[half:])
	ingestPartitioned(t, nodes, "wcov", edges[half:])

	// Crash nodes 1 and 2. Close flushes but never truncates the WAL, so
	// the on-disk state is exactly what a crash after the last
	// acknowledged batch leaves behind.
	for _, i := range []int{1, 2} {
		nodes[i].node.Close()
		nodes[i].multi.Close()
	}

	// Node 1: restore the checkpoint container — Create's WAL injection
	// replays each namespace's tail — then RecoverNamespaces must find
	// nothing left over.
	m1 := server.NewMulti(server.DefaultNamespace)
	m1.SetDurability(durs[1])
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.RestoreAll(f); err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	f.Close()
	if rec, err := m1.RecoverNamespaces(); err != nil || len(rec) != 0 {
		t.Fatalf("RecoverNamespaces after full restore = %v, %v; want none", rec, err)
	}
	restartNode(t, nodes, 1, m1)

	// Node 2 never snapshotted: both namespaces come back from their
	// config sidecars and full WAL replay alone.
	m2 := server.NewMulti(server.DefaultNamespace)
	m2.SetDurability(durs[2])
	rec, err := m2.RecoverNamespaces()
	if err != nil {
		t.Fatalf("RecoverNamespaces: %v", err)
	}
	if len(rec) != 2 || rec[0] != server.DefaultNamespace || rec[1] != "wcov" {
		t.Fatalf("RecoverNamespaces = %v, want [%s wcov]", rec, server.DefaultNamespace)
	}
	restartNode(t, nodes, 2, m2)

	for i, tn := range nodes {
		for _, ns := range []string{server.DefaultNamespace, "wcov"} {
			res := queryCluster(t, tn, ns, tK)
			want := offline.Sets
			if ns == "wcov" {
				want = woffline.Sets
			}
			assertSameSets(t, fmt.Sprintf("post-crash node %d ns %s", i, ns), res.Sets, want)
			if res.SnapshotEdges != int64(len(edges)) {
				t.Fatalf("post-crash node %d ns %s reflects %d of %d edges", i, ns, res.SnapshotEdges, len(edges))
			}
		}
	}
}
