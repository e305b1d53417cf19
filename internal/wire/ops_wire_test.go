package wire

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/server"
)

func dynConfig() server.Config {
	cfg := baseConfig()
	cfg.Engine = server.ModeDynamic
	return cfg
}

// TestOpsHelloRejectedOnLegacyEngine: a session announcing the op plane
// against an append-only engine is refused at the handshake — before
// any frame could carry a delete — with the typed code.
func TestOpsHelloRejectedOnLegacyEngine(t *testing.T) {
	weighted := baseConfig()
	weighted.Weights = &server.WeightConfig{Default: 1}
	env := newTestEnv(t, map[string]server.Config{
		"default": baseConfig(),
		"wt":      weighted,
		"dyn":     dynConfig(),
	}, Options{})

	for _, ns := range []string{"default", "wt"} {
		_, err := Dial(env.addr, Hello{Namespace: ns, Ops: true})
		var werr *WireError
		if !errors.As(err, &werr) || werr.Code != CodeOpsUnsupported {
			t.Fatalf("ops hello on %q: err=%v, want WireError code %d", ns, err, CodeOpsUnsupported)
		}
	}

	// The dynamic namespace accepts the same hello.
	c, err := Dial(env.addr, Hello{Namespace: "dyn", Ops: true})
	if err != nil {
		t.Fatalf("ops hello on dynamic namespace: %v", err)
	}
	if hs := c.Handshake(); hs.Engine != string(server.ModeDynamic) {
		t.Fatalf("handshake engine %q, want dynamic", hs.Engine)
	}
	c.Close()
}

// TestOpFrameWithoutNegotiation: an op-batch frame on a session whose
// hello did not set Ops is rejected even on a delete-capable engine —
// the negotiation is per session, not per namespace.
func TestOpFrameWithoutNegotiation(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"dyn": dynConfig()}, Options{})

	s := newRawSession(t, env.addr, Hello{Namespace: "dyn"})
	body, err := AppendOpBatch(nil, 0, bipartite.Inserts([]bipartite.Edge{{Set: 1, Elem: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	s.send(AppendFrame(nil, FrameOpBatch, body))
	s.expectError(CodeOpsUnsupported)
}

// TestSessionOpsDeleteAll is the wire leg of the insert-all-delete-all
// acceptance: a session streams every edge as inserts and then retracts
// every one of them; the engine ends on the fully cancelled state and
// answers the empty solution.
func TestSessionOpsDeleteAll(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"dyn": dynConfig()}, Options{AckEvery: 4})
	eng, _ := env.multi.Get("dyn")

	conn, err := Dial(env.addr, Hello{Namespace: "dyn", Ops: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	edges := randomEdges(rng, 500, 64)

	for off := 0; off < len(edges); off += 50 {
		if err := conn.SendOps(bipartite.Inserts(edges[off : off+50])); err != nil {
			t.Fatalf("SendOps(inserts): %v", err)
		}
	}
	for off := 0; off < len(edges); off += 50 {
		if err := conn.SendOps(bipartite.Deletes(edges[off : off+50])); err != nil {
			t.Fatalf("SendOps(deletes): %v", err)
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if wm := conn.Watermark(); wm != int64(2*len(edges)) {
		t.Fatalf("watermark %d, want %d (offsets count ops)", wm, 2*len(edges))
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if got := eng.IngestedEdges(); got != int64(2*len(edges)) {
		t.Fatalf("engine ingested %d ops, want %d", got, 2*len(edges))
	}
	res, err := eng.Query(server.Query{Algo: server.AlgoKCover, K: 4, Refresh: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Sets) != 0 || res.EstimatedCoverage != 0 || res.SketchCoverage != 0 {
		t.Fatalf("delete-all over the wire answered %v (coverage %v/%d), want the empty solution",
			res.Sets, res.EstimatedCoverage, res.SketchCoverage)
	}
}

// TestOpsReconnectResumesExactlyOnce: op offsets ride the same
// watermark/dedup machinery as edge offsets, so a crashed-and-resumed
// op stream applies every delete exactly once. Over-applied deletes
// would leave net-negative cells, so the final empty decode doubles as
// a cancellation check.
func TestOpsReconnectResumesExactlyOnce(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"dyn": dynConfig()}, Options{AckEvery: 2})
	eng, _ := env.multi.Get("dyn")

	rng := rand.New(rand.NewSource(7))
	edges := randomEdges(rng, 400, 64)
	ops := append(bipartite.Inserts(edges), bipartite.Deletes(edges)...)

	// First connection sends a prefix spanning the insert/delete
	// boundary, then dies without flushing.
	c1, err := Dial(env.addr, Hello{Namespace: "dyn", Stream: "loader", Ops: true})
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	for sent := 0; sent < 500; sent += 25 {
		if err := c1.SendOps(ops[sent : sent+25]); err != nil {
			t.Fatalf("SendOps: %v", err)
		}
	}
	c1.Abort()

	c2, err := dialRetryBusy(env.addr, Hello{Namespace: "dyn", Stream: "loader", Ops: true})
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	wm := c2.Handshake().Watermark
	if wm < 0 || wm > 500 {
		t.Fatalf("resume watermark %d outside [0,500]", wm)
	}
	if wm != eng.IngestedEdges() {
		t.Fatalf("resume watermark %d != engine ingested %d", wm, eng.IngestedEdges())
	}
	for off := int(wm); off < len(ops); {
		n := 30
		if off+n > len(ops) {
			n = len(ops) - off
		}
		if err := c2.SendOps(ops[off : off+n]); err != nil {
			t.Fatalf("resume SendOps: %v", err)
		}
		off += n
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if got := eng.IngestedEdges(); got != int64(len(ops)) {
		t.Fatalf("engine ingested %d ops, want %d (exactly-once violated)", got, len(ops))
	}
	res, err := eng.Query(server.Query{Algo: server.AlgoKCover, K: 4, Refresh: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Sets) != 0 || res.SketchCoverage != 0 {
		t.Fatalf("resumed delete stream did not cancel: answered %v (covered %d)", res.Sets, res.SketchCoverage)
	}
}

// TestInterleavedSendAndSendOps: on an Ops session edge frames and op
// frames advance one offset and one watermark, so a stream that mixes
// Send and SendOps resumes exactly once after an Abort — whichever
// frame type the cut fell in. The stream inserts every edge (by either
// call) and then retracts every edge, so exactly-once shows as the
// engine's record count and as an empty final decode.
func TestInterleavedSendAndSendOps(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"dyn": dynConfig()}, Options{AckEvery: 3})
	eng, _ := env.multi.Get("dyn")

	rng := rand.New(rand.NewSource(9))
	edges := randomEdges(rng, 300, 64)
	ops := append(bipartite.Inserts(edges), bipartite.Deletes(edges)...)
	// sendFrom streams ops[from:] in batches of 20, alternating the two
	// calls while a batch is insert-only, and stops after max batches.
	sendFrom := func(c *Conn, from, max int) {
		t.Helper()
		for i := 0; from < len(ops) && i < max; i++ {
			end := from + 20
			if end > len(ops) {
				end = len(ops)
			}
			batch := ops[from:end]
			var err error
			if i%2 == 0 && end <= len(edges) { // ops[:len(edges)] inserts edges
				err = c.Send(edges[from:end])
			} else {
				err = c.SendOps(batch)
			}
			if err != nil {
				t.Fatalf("batch at offset %d: %v", from, err)
			}
			if want := int64(end); c.Offset() != want {
				t.Fatalf("offset %d after a batch ending at %d", c.Offset(), want)
			}
			from = end
		}
	}

	hello := Hello{Namespace: "dyn", Stream: "mixed", Ops: true}
	c1, err := Dial(env.addr, hello)
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	sendFrom(c1, 0, 11) // 220 inserts: edge and op frames alternate
	if err := c1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if wm := c1.Watermark(); wm != 220 {
		t.Fatalf("flushed watermark %d, want 220 (edge and op frames must share it)", wm)
	}
	sendFrom(c1, 220, 9) // across the insert/delete boundary, unflushed
	c1.Abort()

	c2, err := dialRetryBusy(env.addr, hello)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	wm := c2.Handshake().Watermark
	if wm < 220 || wm > 400 || wm%20 != 0 {
		t.Fatalf("resume watermark %d, want a batch boundary in [220,400]", wm)
	}
	if wm != eng.IngestedEdges() {
		t.Fatalf("resume watermark %d != engine ingested %d", wm, eng.IngestedEdges())
	}
	sendFrom(c2, int(wm), len(ops))
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := eng.IngestedEdges(); got != int64(len(ops)) {
		t.Fatalf("engine ingested %d records, want %d (exactly-once violated)", got, len(ops))
	}
	res, err := eng.Query(server.Query{Algo: server.AlgoKCover, K: 4, Refresh: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Sets) != 0 || res.SketchCoverage != 0 {
		t.Fatalf("resumed mixed stream did not cancel: answered %v (covered %d)", res.Sets, res.SketchCoverage)
	}
}

// TestEdgeFrameNeverDeletes: on a dynamic namespace and an Ops session,
// an edge frame whose set word carries bipartite.OpDeleteBit is a set id
// out of range, not a delete — and the run it was folded into is refused
// whole, the good edge frame ahead of it included.
func TestEdgeFrameNeverDeletes(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"dyn": dynConfig()}, Options{})
	eng, _ := env.multi.Get("dyn")
	s := newRawSession(t, env.addr, Hello{Namespace: "dyn", Ops: true})
	s.send(burst(
		batchFrame(t, 0, []bipartite.Edge{{Set: 5, Elem: 7}}),
		batchFrame(t, 1, []bipartite.Edge{{Set: 5 | bipartite.OpDeleteBit, Elem: 7}}),
	))
	s.expectError(CodeIngest)
	if got := eng.IngestedEdges(); got != 0 {
		t.Fatalf("engine ingested %d records, want the run refused whole", got)
	}
	if got := eng.Counters().DeletedEdges; got != 0 {
		t.Fatalf("engine deleted %d edges off an edge frame", got)
	}
	if got := env.srv.Stats().IngestErrors; got != 1 {
		t.Fatalf("ingest errors %d, want 1", got)
	}
}
