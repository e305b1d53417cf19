package streamcover

import (
	"net"

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
// An empty Namespace selects the server's default namespace (the one
// its unprefixed HTTP routes serve). A named Stream's acknowledged
// watermark survives reconnects: a new connection resumes sending at
// Handshake().Watermark, with server-side deduplication of any overlap.
// Ops must be set before SendOps may carry deletes, and is rejected at
// the handshake unless the namespace runs a delete-capable engine.
type WireHello = wire.Hello

// IngestConn is a client-side wire ingest connection. Sends are
// pipelined (no per-batch round trip); Flush blocks until the server
// acknowledges everything sent, at which point every edge is in the
// engine — and in the WAL on a durable namespace. Handshake reports the
// resume watermark and the namespace's actual engine mode; Abort drops
// the connection without flushing, so a reconnect on the same named
// stream resumes exactly from the acknowledged watermark. Safe for one
// sender goroutine; concurrent Send calls are serialized.
type IngestConn = wire.Conn

// DialIngest connects to a covserved wire listener (-wire-addr) and
// performs the handshake. A configuration mismatch or unknown namespace
// surfaces as *wire.WireError.
func DialIngest(addr string, h WireHello) (*IngestConn, error) {
	return wire.Dial(addr, h)
}

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
