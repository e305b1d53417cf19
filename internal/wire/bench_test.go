package wire

import (
	"math/rand"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// BenchmarkWireIngest is durable wire ingest end to end in one process: a
// loopback Conn streams 1024-edge frames into a Server feeding a 2-shard
// sketch engine at budget 40 000 whose WAL fsyncs on the interval policy.
// One epoch of 2^18 edges of fresh elements is sent and flushed per
// iteration, after a warm epoch off the clock, so the sketch is in the
// steady state where almost every edge lands above the bar.
func BenchmarkWireIngest(b *testing.B) {
	const (
		numSets = 1000
		epoch   = 1 << 18
		frame   = 1024
	)
	cfg := server.Config{NumSets: numSets, K: 20, Eps: 0.5, Seed: 1, EdgeBudget: 40_000, Shards: 2,
		WAL: &server.WALConfig{Dir: filepath.Join(b.TempDir(), "wal"), Fsync: "interval"}}
	m := server.NewMulti("")
	defer m.Close()
	if _, err := m.Create("default", cfg); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(m, Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	conn, err := Dial(ln.Addr().String(), Hello{Namespace: "default"})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Abort()

	rng := rand.New(rand.NewSource(1))
	edges := make([]bipartite.Edge, epoch)
	fill := func() {
		for i := range edges {
			edges[i] = bipartite.Edge{Set: uint32(rng.Intn(numSets)), Elem: rng.Uint32()}
		}
	}
	send := func() {
		for off := 0; off < epoch; off += frame {
			if err := conn.Send(edges[off : off+frame]); err != nil {
				b.Fatal(err)
			}
		}
		if err := conn.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	fill()
	send()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		send()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*epoch), "ns/edge")
}
