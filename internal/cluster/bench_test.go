package cluster

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The cluster-pair workload's shape: a Zipf instance of 1000 sets over 10^6
// elements (≈5.3M edges an epoch, later epochs the same graph over new
// element ids), sketched at k = 20, ε = 0.3, two shards and budget 200 000
// per node.
const (
	pairBenchElems  = 1_000_000
	pairBenchBudget = 200_000
	// pairBenchRound is what B receives between two rounds: 2M edges/s
	// over the workload's 250 ms pull period.
	pairBenchRound = 500_000
)

func pairBenchConfig() server.Config {
	return server.Config{
		NumSets: 1000, NumElems: pairBenchElems, K: 20,
		Eps: 0.3, Seed: 7, EdgeBudget: pairBenchBudget, Shards: 2,
	}
}

// BenchmarkClusterFreshQuery is one round of cluster-pair in process: two
// nodes, B serving over loopback HTTP, A holding one epoch and B fed the
// next in rounds of pairBenchRound edges never sent before. After each
// round A pulls (pull-ms/op: B's serving refresh, the 226 and its fold
// into the stored state), makes its fresh cluster view (fold-ms/op: an
// idle local refresh and the view fold), materializes the view's graph
// (graph-ms/op: the fold of the previous view's graph, or a full build)
// and answers kcover k = 20 (query-ms/op: greedy). Two rounds before the
// clock make the pulls deltas and give the view a graph to carry forward.
func BenchmarkClusterFreshQuery(b *testing.B) {
	b.StopTimer()
	b.ReportAllocs()
	inst := workload.Zipf(1000, pairBenchElems, 500_000, 0.9, 0.7, 1)
	base := stream.Drain(stream.Shuffled(inst.G, 2))

	newNode := func(peers ...string) (*server.Multi, *server.Engine, *Node) {
		multi := server.NewMulti(server.DefaultNamespace)
		e, err := multi.Create(server.DefaultNamespace, pairBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
		n, err := NewNode(multi, Options{NodeID: "bench", Peers: peers, PullInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close(); multi.Close() })
		return multi, e, n
	}
	_, eb, nb := newNode()
	srv := httptest.NewServer(NewHandler(nb, server.HTTPOptions{}))
	b.Cleanup(srv.Close)
	_, ea, na := newNode(srv.URL)
	if _, err := ea.Ingest(base); err != nil {
		b.Fatal(err)
	}

	// B's stream is the epochs after A's, in rounds.
	next, buf := len(base), make([]bipartite.Edge, 4096)
	round := func() {
		for n := pairBenchRound; n > 0; {
			chunk := buf[:min(len(buf), n)]
			for i := range chunk {
				edge := base[next%len(base)]
				edge.Elem += uint32(next / len(base) * pairBenchElems)
				chunk[i] = edge
				next++
			}
			if _, err := eb.Ingest(chunk); err != nil {
				b.Fatal(err)
			}
			n -= len(chunk)
		}
		if _, err := eb.Stats(); err != nil { // rides the mailboxes: every batch is applied
			b.Fatal(err)
		}
	}
	q := server.Query{Algo: server.AlgoKCover, K: 20}
	var pull, fold, graph, query time.Duration
	for i := -2; i < b.N; i++ {
		round()
		timed := i >= 0
		if timed {
			b.StartTimer()
		}
		t0 := time.Now()
		err := na.PullNow()
		t1 := time.Now()
		var snap *server.Snapshot
		if err == nil {
			snap, err = na.snapshot(server.DefaultNamespace, ea, true)
		}
		t2 := time.Now()
		if err == nil {
			_, err = snap.Graph()
		}
		t3 := time.Now()
		if err == nil {
			_, err = ea.QuerySnapshot(snap, q)
		}
		t4 := time.Now()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if timed {
			pull += t1.Sub(t0)
			fold += t2.Sub(t1)
			graph += t3.Sub(t2)
			query += t4.Sub(t3)
		}
	}
	if st := na.Stats(); st.Peers[0].Deltas != int64(b.N+1) || st.ViewFolds != int64(b.N+1) {
		b.Fatalf("%d rounds: %d delta pulls, %d view folds; want a delta and a fold per round after the first", b.N+2, st.Peers[0].Deltas, st.ViewFolds)
	}
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(pull), "pull-ms/op")
	b.ReportMetric(perOp(fold), "fold-ms/op")
	b.ReportMetric(perOp(graph), "graph-ms/op")
	b.ReportMetric(perOp(query), "query-ms/op")
}
