package streamcover

import (
	"net"

	"repro/internal/stream"
	"repro/internal/wire"
)

// This file threads the binary wire ingest plane (internal/wire,
// DESIGN.md §13) through the public API: DialIngest opens a
// persistent-connection producer that streams edge batches to a
// covserved wire listener an order of magnitude faster than HTTP JSON
// posts (bench/README.md), and Hub.WireServer exposes a hub's
// namespaces on such a listener in-process.

// WireHello configures a wire ingest connection: which namespace (and
// resumable stream) to feed, and the engine configuration the producer
// expects the namespace to run — mismatches are rejected at the
// handshake, exactly like the cluster plane rejects mismatched peers.
type WireHello struct {
	// Namespace is the target namespace name; empty selects "default".
	Namespace string
	// Stream, when non-empty, names a resumable stream: its acknowledged
	// watermark survives reconnects, and a new connection resumes sending
	// at ResumeOffset with server-side deduplication of any overlap.
	Stream string
	// Engine, when non-empty, must match the namespace's engine mode
	// ("sketch", "weighted", "dynamic") or the handshake is
	// rejected.
	Engine string
	// CheckWeights makes the handshake compare WeightSig against the
	// namespace's weight signature.
	CheckWeights bool
	// WeightSig is the expected weight-table signature (with CheckWeights).
	WeightSig uint64
	// Ops announces that the session may send op batches (SendOps, with
	// deletes). The handshake is rejected unless the namespace runs a
	// delete-capable engine, so a producer learns at connect time — not
	// first-delete time — that it picked the wrong namespace.
	Ops bool
}

// IngestConn is a client-side wire ingest connection. Sends are
// pipelined (no per-batch round trip); Flush blocks until the server
// acknowledges everything sent, at which point every edge is in the
// engine — and in the WAL on a durable namespace. Safe for one sender
// goroutine; concurrent Send calls are serialized.
type IngestConn struct {
	c *wire.Conn
}

// DialIngest connects to a covserved wire listener (-wire-addr) and
// performs the handshake. A configuration mismatch or unknown namespace
// surfaces as *wire.WireError.
func DialIngest(addr string, h WireHello) (*IngestConn, error) {
	ns := h.Namespace
	if ns == "" {
		ns = "default"
	}
	c, err := wire.Dial(addr, wire.Hello{
		Namespace:    ns,
		Stream:       h.Stream,
		Engine:       h.Engine,
		CheckWeights: h.CheckWeights,
		WeightSig:    h.WeightSig,
		Ops:          h.Ops,
	})
	if err != nil {
		return nil, err
	}
	return &IngestConn{c: c}, nil
}

// ResumeOffset returns the stream offset the connection resumed at: the
// server's acknowledged watermark from the handshake (0 for a fresh or
// anonymous stream). A reconnecting producer restarts its stream from
// this edge index.
func (c *IngestConn) ResumeOffset() int64 { return c.c.Handshake().Watermark }

// Engine returns the namespace's actual engine mode name, as reported
// by the handshake.
func (c *IngestConn) Engine() string { return c.c.Handshake().Engine }

// Watermark returns the server's latest acknowledged edge watermark.
func (c *IngestConn) Watermark() int64 { return c.c.Watermark() }

// Send streams one edge batch (pipelined; the slice is reusable on
// return).
func (c *IngestConn) Send(edges []Edge) error { return c.c.Send(edges) }

// SendOps streams one operation batch (inserts and deletes, pipelined;
// the slice is reusable on return). The connection must have been
// dialed with WireHello.Ops set, and the stream offset advances by the
// op count, so Flush and reconnect-resume cover deletes exactly like
// inserts.
func (c *IngestConn) SendOps(ops []Op) error {
	return c.c.SendOps(engineOps(ops))
}

// SendStream drains st over the connection in batches of batchSize
// (default 1024) and returns the number of edges sent.
func (c *IngestConn) SendStream(st Stream, batchSize int) (int64, error) {
	if batchSize < 1 {
		batchSize = 1024
	}
	return stream.Batches(st, batchSize, c.Send)
}

// Flush blocks until the server has acknowledged every edge sent so
// far.
func (c *IngestConn) Flush() error { return c.c.Flush() }

// Close flushes and closes the connection.
func (c *IngestConn) Close() error { return c.c.Close() }

// Abort drops the connection without flushing; a reconnect on the same
// named stream resumes exactly from the acknowledged watermark.
func (c *IngestConn) Abort() error { return c.c.Abort() }

// WireServer returns a wire ingest server over the hub's namespaces.
// Call Serve with a listener (it blocks accepting connections) and
// Close to stop:
//
//	srv := hub.WireServer(wire.Options{})
//	go srv.Serve(ln)
//	defer srv.Close()
func (h *Hub) WireServer(opt wire.Options) *wire.Server {
	return wire.NewServer(h.multi, opt)
}

// ServeWire is the one-call form: it starts a wire ingest server on ln
// and returns it (already serving in the background).
func (h *Hub) ServeWire(ln net.Listener, opt wire.Options) *wire.Server {
	srv := wire.NewServer(h.multi, opt)
	go srv.Serve(ln)
	return srv
}
