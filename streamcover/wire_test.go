package streamcover

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// dialWireRetry dials like a reconnecting producer: after an abort the
// named stream stays busy until the server notices the dead connection,
// so CodeStreamBusy is retried briefly.
func dialWireRetry(t *testing.T, addr string, h WireHello) *IngestConn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := DialIngest(addr, h)
		var werr *wire.WireError
		if errors.As(err, &werr) && werr.Code == wire.CodeStreamBusy && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("DialIngest: %v", err)
		}
		return c
	}
}

// ingestOverWire streams edges to a hub's wire listener with a
// mid-stream connection abort: the first connection dies unflushed
// partway in, and the reconnect resumes from the server-acknowledged
// watermark, resending (deduplicated) overlap. Exactly-once ingest of
// the full stream is the invariant under test.
func ingestOverWire(t *testing.T, addr string, h WireHello, edges []Edge, batch int) {
	t.Helper()
	c := dialWireRetry(t, addr, h)
	if c.ResumeOffset() != 0 {
		t.Fatalf("fresh stream resumed at %d", c.ResumeOffset())
	}
	half := (len(edges) / batch / 2) * batch
	for off := 0; off < half; off += batch {
		end := off + batch
		if end > half {
			end = half
		}
		if err := c.Send(edges[off:end]); err != nil {
			t.Fatalf("wire send: %v", err)
		}
	}
	c.Abort() // unflushed: an unknown suffix of the sent batches is acked

	c = dialWireRetry(t, addr, h)
	resume := c.ResumeOffset()
	if resume < 0 || resume > int64(half) {
		t.Fatalf("resume offset %d outside [0,%d]", resume, half)
	}
	// Resume exactly at the acknowledged watermark — the client stamps
	// stream offsets itself, so the producer's contract is to continue
	// from ResumeOffset (server-side overlap trimming for hand-rolled
	// offsets is covered by the internal/wire protocol tests).
	for off := int(resume); off < len(edges); off += batch {
		end := off + batch
		if end > len(edges) {
			end = len(edges)
		}
		if err := c.Send(edges[off:end]); err != nil {
			t.Fatalf("wire resend: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("wire close: %v", err)
	}
}

// ingestOverHTTP posts edges to a multi-tenant JSON handler in batches.
func ingestOverHTTP(t *testing.T, base string, edges []Edge, batch int) {
	t.Helper()
	for off := 0; off < len(edges); off += batch {
		end := off + batch
		if end > len(edges) {
			end = len(edges)
		}
		pairs := make([][2]uint32, 0, end-off)
		for _, e := range edges[off:end] {
			pairs = append(pairs, [2]uint32{e.Set, e.Elem})
		}
		body, _ := json.Marshal(map[string]interface{}{"edges": pairs})
		resp, err := http.Post(base+"/v1/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/edges: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/edges: %s", resp.Status)
		}
	}
}

// TestWireEquivalenceAcrossModes pins the wire ingest plane to the
// HTTP-JSON plane and the one-shot offline algorithms: for every
// workload generator and every engine mode, ingesting the same edge
// stream through a wire connection (with a mid-stream reconnect and
// overlapping resend) and through JSON posts (with a different batch
// size) must produce bit-identical query answers — and, for the sketch
// and weighted modes, the identical answer to the one-shot MaxCoverage /
// MaxWeightedCoverage run (the dynamic mode's insert-only pin to the
// sketch is TestDynamicServiceInsertOnlyMatchesSketch).
func TestWireEquivalenceAcrossModes(t *testing.T) {
	const k = 4
	generators := []struct {
		name string
		inst *Instance
	}{
		{"uniform", GenerateUniform(40, 300, 0.05, 1)},
		{"zipf", GenerateZipf(40, 300, 60, 1.1, 1.1, 2)},
		{"planted-kcover", GeneratePlantedKCover(40, 300, k, 0.8, 10, 3)},
		{"planted-setcover", GeneratePlantedSetCover(40, 300, 5, 2, 4)},
		{"blog-topics", GenerateBlogTopics(40, 200, 20, 5)},
		{"large-sets", GenerateLargeSets(12, 2000, 0.3, 6)},
		{"clustered", GenerateClustered(40, 300, 5, 7)},
	}
	modes := []string{"sketch", "weighted", "dynamic"}

	for _, g := range generators {
		n, m := g.inst.NumSets(), g.inst.NumElems()
		// Materialize one edge order shared by every ingest path.
		var edges []Edge
		st := g.inst.EdgeStream(17)
		for {
			e, ok := st.Next()
			if !ok {
				break
			}
			edges = append(edges, e)
		}
		base := Options{Eps: 0.4, Seed: 99, NumElems: m, EdgeBudget: 50 * n}
		weights := Weights{Table: nil, Default: 0}
		weights.Table = make([]float64, m)
		for i := range weights.Table {
			weights.Table[i] = float64(1 + i%5)
		}

		for _, mode := range modes {
			t.Run(g.name+"/"+mode, func(t *testing.T) {
				opt := ServiceOptions{Options: base, K: k, Shards: 3, BatchQueue: 4}
				switch mode {
				case "weighted":
					opt.Weights = &weights
				case "dynamic":
					opt.Engine = "dynamic"
				}

				newNS := func(hub *Hub) *Service {
					svc, err := hub.OpenNamespace(DefaultNamespace, n, opt)
					if err != nil {
						t.Fatalf("OpenNamespace: %v", err)
					}
					return svc
				}
				wireHub, httpHub := NewHub(), NewHub()
				defer wireHub.Close()
				defer httpHub.Close()
				wireSvc, httpSvc := newNS(wireHub), newNS(httpHub)

				// Wire path, strict handshake: engine mode and (for the
				// weighted mode) the weight signature are validated.
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				wsrv := wireHub.ServeWire(ln, wire.Options{AckEvery: 3})
				defer wsrv.Close()
				hello := WireHello{Stream: "eq", Engine: mode}
				if mode == "weighted" {
					hello.CheckWeights = true
					hello.WeightSig = wireSvc.Engine().WeightSig()
				}
				ingestOverWire(t, ln.Addr().String(), hello, edges, 97)

				// HTTP-JSON path, different batching.
				hs := httptest.NewServer(server.NewMultiHandler(httpHub.Multi(), server.HTTPOptions{}))
				defer hs.Close()
				ingestOverHTTP(t, hs.URL, edges, 173)

				if got := wireSvc.Engine().IngestedEdges(); got != int64(len(edges)) {
					t.Fatalf("wire ingested %d of %d edges (exactly-once violated)", got, len(edges))
				}
				wireRes, err := wireSvc.KCover(k, true)
				if err != nil {
					t.Fatalf("wire KCover: %v", err)
				}
				httpRes, err := httpSvc.KCover(k, true)
				if err != nil {
					t.Fatalf("http KCover: %v", err)
				}
				if !reflect.DeepEqual(wireRes, httpRes) {
					t.Fatalf("wire result diverged from HTTP result:\nwire: %+v\nhttp: %+v", wireRes, httpRes)
				}

				// The append-only modes also pin to the one-shot runs.
				replay := &SliceStream{Edges: edges}
				switch mode {
				case "sketch":
					off, err := MaxCoverage(replay, n, k, base)
					if err != nil {
						t.Fatalf("MaxCoverage: %v", err)
					}
					if !reflect.DeepEqual(wireRes.Sets, off.Sets) || wireRes.EstimatedCoverage != off.EstimatedCoverage {
						t.Fatalf("wire (%v, %v) != offline MaxCoverage (%v, %v)",
							wireRes.Sets, wireRes.EstimatedCoverage, off.Sets, off.EstimatedCoverage)
					}
				case "weighted":
					off, err := MaxWeightedCoverage(replay, n, k, weights.WeightOf, base)
					if err != nil {
						t.Fatalf("MaxWeightedCoverage: %v", err)
					}
					if !reflect.DeepEqual(wireRes.Sets, off.Sets) || wireRes.EstimatedCoverage != off.EstimatedCoverage {
						t.Fatalf("wire (%v, %v) != offline MaxWeightedCoverage (%v, %v)",
							wireRes.Sets, wireRes.EstimatedCoverage, off.Sets, off.EstimatedCoverage)
					}
				}
			})
		}
	}
}

// TestWireHandshakeStrictness verifies the public wrapper surfaces
// handshake rejects as typed *wire.WireError values.
func TestWireHandshakeStrictness(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	if _, err := hub.OpenNamespace(DefaultNamespace, 16, ServiceOptions{
		Options: Options{Eps: 0.5, Seed: 1}, K: 2, Shards: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := hub.ServeWire(ln, wire.Options{})
	defer srv.Close()
	addr := ln.Addr().String()

	cases := []struct {
		hello WireHello
		code  uint16
	}{
		{WireHello{Namespace: "nope"}, wire.CodeUnknownNamespace},
		{WireHello{Engine: "weighted"}, wire.CodeEngineMismatch},
		{WireHello{CheckWeights: true, WeightSig: 1}, wire.CodeWeightsMismatch},
	}
	for _, tc := range cases {
		_, err := DialIngest(addr, tc.hello)
		var werr *wire.WireError
		if !errors.As(err, &werr) || werr.Code != tc.code {
			t.Fatalf("hello %+v: err=%v, want WireError code %d", tc.hello, err, tc.code)
		}
	}

	// The happy path reports the engine mode it connected to.
	c, err := DialIngest(addr, WireHello{})
	if err != nil {
		t.Fatalf("DialIngest: %v", err)
	}
	if c.Engine() != "sketch" {
		t.Fatalf("handshake engine %q, want sketch", c.Engine())
	}
	if err := c.Send([]Edge{{Set: 1, Elem: 2}}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	svc, _ := hub.Namespace(DefaultNamespace)
	if got := svc.Engine().IngestedEdges(); got != 1 {
		t.Fatalf("ingested %d, want 1", got)
	}
}

// TestIngestConnConcurrentSends: an IngestConn's sends share one wire
// connection, whose writer serializes them, so goroutines sending on it
// at once deliver every edge exactly once, and the namespace answers as a
// Service fed the same edges directly.
func TestIngestConnConcurrentSends(t *testing.T) {
	const n, k, senders, batch = 40, 4, 4, 64
	var edges []Edge
	for st := GenerateUniform(n, 2000, 0.05, 1).EdgeStream(3); ; {
		e, ok := st.Next()
		if !ok {
			break
		}
		edges = append(edges, e)
	}
	opt := ServiceOptions{Options: Options{Eps: 0.4, Seed: 5, EdgeBudget: 50 * n}, K: k, Shards: 2}

	hub := NewHub()
	defer hub.Close()
	svc, err := hub.OpenNamespace(DefaultNamespace, n, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wsrv := hub.ServeWire(ln, wire.Options{AckEvery: 3})
	defer wsrv.Close()
	c, err := DialIngest(ln.Addr().String(), WireHello{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range senders {
		part := edges[g*len(edges)/senders : (g+1)*len(edges)/senders]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sent, err := c.SendStream(&SliceStream{Edges: part}, batch); err != nil || sent != int64(len(part)) {
				t.Errorf("sender %d: sent %d of %d: %v", g, sent, len(part), err)
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	direct, err := NewService(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestedEdges != int64(len(edges)) {
		t.Fatalf("namespace ingested %d edges, want %d", st.IngestedEdges, len(edges))
	}
	got, err := svc.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sets, want.Sets) || got.EstimatedCoverage != want.EstimatedCoverage {
		t.Fatalf("concurrent wire sends answered %v (%v), direct ingest %v (%v)",
			got.Sets, got.EstimatedCoverage, want.Sets, want.EstimatedCoverage)
	}
}
