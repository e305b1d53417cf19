package cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// The dynamic-mode cluster suite: the L0 sampler is a linear function
// of the net op multiset, so the anti-entropy fold (cell-wise addition
// of the peers' samplers) reproduces exactly the sampler of the
// concatenated streams — deletes included. Every test compares cluster
// answers bit-for-bit against a single dynamic engine fed the union of
// the nodes' op streams. One constraint is inherent to the mode: each
// node's *local* stream must itself be a valid turnstile stream (no
// edge deleted more than inserted locally), because a node materializes
// its own state for local answers before the cluster fold happens.

func dynamicClusterConfig() server.Config {
	cfg := testConfig(2)
	cfg.Engine = server.ModeDynamic
	return cfg
}

// startDynamicCluster mirrors startCluster with a single dynamic-mode
// default namespace per node (two shards: the sampler is shard- and
// order-invariant, so sharding costs nothing).
func startDynamicCluster(t *testing.T, size int) []*testNode {
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
		if _, err := tn.multi.Create(server.DefaultNamespace, dynamicClusterConfig()); err != nil {
			t.Fatal(err)
		}
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node, err := NewNode(tn.multi, Options{
			NodeID:       fmt.Sprintf("dyn-node-%d", i),
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

// dynamicReference answers kcover on a single dynamic engine fed ops —
// the ground truth every cluster-view answer must reproduce exactly.
func dynamicReference(t *testing.T, ops []bipartite.Op) *server.QueryResult {
	t.Helper()
	ref, err := server.New(dynamicClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.IngestOps(ops); err != nil {
		t.Fatal(err)
	}
	res, err := ref.Query(server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterDynamicExchange: node 0 ingests the whole stream through
// the op plane, node 1 ingests nothing and must converge to the exact
// single-engine answer through one anti-entropy pull of the serialized
// sampler (merging with node 1's empty sampler is the identity).
func TestClusterDynamicExchange(t *testing.T) {
	edges := testEdges(t)
	nodes := startDynamicCluster(t, 2)

	e0, _ := nodes[0].multi.Get(server.DefaultNamespace)
	if _, err := e0.IngestOps(bipartite.Inserts(edges)); err != nil {
		t.Fatal(err)
	}
	ref := dynamicReference(t, bipartite.Inserts(edges))

	pulled := queryCluster(t, nodes[1], server.DefaultNamespace, tK)
	assertSameSets(t, "node1 pulled vs single engine", pulled.Sets, ref.Sets)
	if pulled.EstimatedCoverage != ref.EstimatedCoverage {
		t.Fatalf("pulled coverage %v != reference %v", pulled.EstimatedCoverage, ref.EstimatedCoverage)
	}
	if pulled.Engine != server.ModeDynamic {
		t.Fatalf("pulled result engine %q, want dynamic", pulled.Engine)
	}
	if pulled.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("cluster view saw %d of %d ops", pulled.SnapshotEdges, len(edges))
	}
}

// TestClusterDynamicPartitionedDeletes: three nodes each insert their
// round-robin partition and then retract the first half of it again.
// By linearity the cluster fold equals the sampler of the whole net
// stream, so every node's answer must be bit-identical to a single
// engine fed all inserts and all deletes.
func TestClusterDynamicPartitionedDeletes(t *testing.T) {
	edges := testEdges(t)
	nodes := startDynamicCluster(t, 3)

	var all []bipartite.Op
	totalOps := 0
	for i, tn := range nodes {
		var part []bipartite.Edge
		for j := i; j < len(edges); j += len(nodes) {
			part = append(part, edges[j])
		}
		ops := append(bipartite.Inserts(part), bipartite.Deletes(part[:len(part)/2])...)
		e, _ := tn.multi.Get(server.DefaultNamespace)
		if _, err := e.IngestOps(ops); err != nil {
			t.Fatal(err)
		}
		all = append(all, ops...)
		totalOps += len(ops)
	}
	ref := dynamicReference(t, all)
	if len(ref.Sets) == 0 {
		t.Fatal("reference answer is empty; the workload is too small to test anything")
	}

	for i, tn := range nodes {
		res := queryCluster(t, tn, server.DefaultNamespace, tK)
		assertSameSets(t, fmt.Sprintf("node %d vs single engine", i), res.Sets, ref.Sets)
		if res.EstimatedCoverage != ref.EstimatedCoverage {
			t.Fatalf("node %d coverage %v != reference %v", i, res.EstimatedCoverage, ref.EstimatedCoverage)
		}
		if res.SnapshotEdges != int64(totalOps) {
			t.Fatalf("node %d merged view saw %d of %d ops", i, res.SnapshotEdges, totalOps)
		}
	}
}

// TestClusterDynamicDeleteAll is the 3-node leg of the
// insert-all-delete-all acceptance: each node inserts its partition and
// retracts every edge of it again, so the cluster-wide net stream is
// empty and every node must answer an empty solution with zero
// coverage — the fully cancelled sampler decodes at level 0 to no
// edges, locally and through the anti-entropy fold alike.
func TestClusterDynamicDeleteAll(t *testing.T) {
	edges := testEdges(t)
	nodes := startDynamicCluster(t, 3)

	for i, tn := range nodes {
		var part []bipartite.Edge
		for j := i; j < len(edges); j += len(nodes) {
			part = append(part, edges[j])
		}
		e, _ := tn.multi.Get(server.DefaultNamespace)
		if _, err := e.IngestOps(append(bipartite.Inserts(part), bipartite.Deletes(part)...)); err != nil {
			t.Fatal(err)
		}
	}

	for i, tn := range nodes {
		res := queryCluster(t, tn, server.DefaultNamespace, tK)
		if len(res.Sets) != 0 {
			t.Fatalf("node %d answered %v on a fully cancelled cluster stream", i, res.Sets)
		}
		if res.EstimatedCoverage != 0 || res.SketchCoverage != 0 {
			t.Fatalf("node %d coverage %v/%d on a fully cancelled cluster stream",
				i, res.EstimatedCoverage, res.SketchCoverage)
		}
		if res.SnapshotEdges != int64(2*len(edges)) {
			t.Fatalf("node %d merged view saw %d of %d ops", i, res.SnapshotEdges, 2*len(edges))
		}
	}
}

// TestClusterDynamicModeMismatch: a dynamic node pulling a namespace a
// peer serves with the sketch engine must fail the engine-header check,
// not decode the foreign blob.
func TestClusterDynamicModeMismatch(t *testing.T) {
	edges := testEdges(t)

	peerMulti := server.NewMulti(server.DefaultNamespace)
	defer peerMulti.Close()
	if _, err := peerMulti.Create(server.DefaultNamespace, testConfig(1)); err != nil {
		t.Fatal(err)
	}
	pe, _ := peerMulti.Get(server.DefaultNamespace)
	if _, err := pe.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	peerNode, err := NewNode(peerMulti, Options{NodeID: "sketch-peer", PullInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer peerNode.Close()
	peerSrv := httptest.NewServer(NewHandler(peerNode, server.HTTPOptions{}))
	defer peerSrv.Close()

	m := server.NewMulti(server.DefaultNamespace)
	defer m.Close()
	if _, err := m.Create(server.DefaultNamespace, dynamicClusterConfig()); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(m, Options{NodeID: "dyn-local", Peers: []string{peerSrv.URL}, PullInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if err := node.PullNow(); err == nil {
		t.Fatal("pull across engine modes succeeded, want a mode mismatch error")
	}
}
