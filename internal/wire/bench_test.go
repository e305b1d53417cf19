package wire

import (
	"math/rand"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// benchConn serves a one-namespace directory holding cfg on a loopback
// listener and dials it with hello; the cleanup tears everything down.
func benchConn(b *testing.B, cfg server.Config, hello Hello) *Conn {
	m := server.NewMulti("")
	b.Cleanup(func() { m.Close() })
	if _, err := m.Create(hello.Namespace, cfg); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(m, Options{})
	b.Cleanup(func() { srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	conn, err := Dial(ln.Addr().String(), hello)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Abort() })
	return conn
}

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
	conn := benchConn(b, cfg, Hello{Namespace: "default"})

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

// BenchmarkWireIngestOps is the op plane's churn end to end in one
// process: a loopback Conn with Hello.Ops streams op frames of 1024
// records into a Server feeding a 2-shard dynamic engine at budget
// 40 000. Each iteration inserts an epoch of 2^16 edges of fresh elements
// and then deletes it again, flushing after each pass, so the sampler
// ends every iteration as empty as it began.
func BenchmarkWireIngestOps(b *testing.B) {
	const (
		numSets = 1000
		epoch   = 1 << 16
		frame   = 1024
	)
	cfg := server.Config{NumSets: numSets, K: 20, Eps: 0.5, Seed: 1, EdgeBudget: 40_000, Shards: 2,
		Engine: server.ModeDynamic}
	conn := benchConn(b, cfg, Hello{Namespace: "default", Ops: true})

	rng := rand.New(rand.NewSource(1))
	ops := make([]bipartite.Op, epoch)
	fill := func() {
		for i := range ops {
			ops[i] = bipartite.Op{Edge: bipartite.Edge{Set: uint32(rng.Intn(numSets)), Elem: rng.Uint32()}}
		}
	}
	pass := func(kind bipartite.OpKind) {
		for off := 0; off < epoch; off += frame {
			batch := ops[off : off+frame]
			for i := range batch {
				batch[i].Kind = kind
			}
			if err := conn.SendOps(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := conn.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	churn := func() {
		pass(bipartite.OpInsert)
		pass(bipartite.OpDelete)
	}
	fill()
	churn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		churn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*epoch), "ns/record")
}
