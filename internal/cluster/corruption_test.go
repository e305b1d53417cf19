package cluster

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestClusterRejectsOutOfRangeSetID: one flipped bit in a set word of a
// peer's sketch blob (SKCH1 carries no checksum) names a set the
// namespace does not have. The decoder must refuse the blob as a
// data-level rejection — counted, previous good state keeps serving —
// instead of storing a state every later cluster query fails to fold.
func TestClusterRejectsOutOfRangeSetID(t *testing.T) {
	edges := testEdges(t)
	half := len(edges) / 2
	good := stateBlob(t, testConfig(1), edges[:half])
	// The blob's last word is the last element's largest set id.
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] |= 0x04 // bit 10: id + 1024 ≥ tNumSets

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
	q := server.Query{Algo: server.AlgoKCover, K: tK}
	before, err := node.Query(server.DefaultNamespace, q)
	if err != nil {
		t.Fatal(err)
	}
	if before.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("view reflects %d of %d edges", before.SnapshotEdges, len(edges))
	}

	fp.mu.Store(&fakeResp{body: bad, etag: `"flipped"`, sig: "0"})
	err = node.PullNow()
	if err == nil || !strings.Contains(err.Error(), "decoding sketch") || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("flipped set id: got %v, want a decode rejection naming the range", err)
	}
	if st := node.Stats().Peers[0]; st.Rejected != 1 || st.Failures != 0 {
		t.Fatalf("flipped set id not counted as one data-level rejection: %+v", st)
	}
	// Force a local re-merge so the cluster view is rebuilt from whatever
	// remote state the node holds now.
	if _, err := e.Ingest(edges[:1]); err != nil {
		t.Fatal(err)
	}
	q.Refresh = true
	after, err := node.Query(server.DefaultNamespace, q)
	if err != nil {
		t.Fatalf("cluster query after the rejected pull: %v", err)
	}
	if after.SnapshotEdges != before.SnapshotEdges+1 {
		t.Fatalf("view reflects %d edges after the rejected pull, want %d", after.SnapshotEdges, before.SnapshotEdges+1)
	}
	assertSameSets(t, "post-rejection view", after.Sets, before.Sets)
}
