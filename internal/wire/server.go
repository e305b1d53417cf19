package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// Directory resolves namespace names to live engines — satisfied by
// *server.Multi, so one wire listener serves every namespace a
// covserved process hosts.
type Directory interface {
	Get(name string) (*server.Engine, bool)
}

// Options tunes a wire Server.
type Options struct {
	// AckEvery is the number of batch frames between unsolicited acks
	// (default 32). When the frame that owes an ack sits in a coalesced
	// run, the ack is written once the run is in the engine — one ack for
	// the whole run. A flush frame always forces an immediate ack.
	AckEvery int
	// MaxBatchEdges caps the edges accepted per batch frame (default
	// MaxBatchEdges); larger frames are rejected before allocation.
	MaxBatchEdges int
	// OnError, when non-nil, receives per-connection failures (protocol
	// rejects, transport errors) for logging. Never called concurrently
	// with itself for one connection.
	OnError func(err error)
}

// maxCoalesce caps the records one engine call folds from the batch
// frames that have already arrived on a connection.
const maxCoalesce = 1 << 16

// frameArrived reports whether br already holds a whole frame, so reading
// it cannot wait on the network.
func frameArrived(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < frameHeader {
		return false
	}
	header, _ := br.Peek(frameHeader)
	return int64(frameHeader)+int64(binary.LittleEndian.Uint32(header[1:5])) <= int64(n)
}

func (o Options) ackEvery() int {
	if o.AckEvery < 1 {
		return 32
	}
	return o.AckEvery
}

func (o Options) maxBatch() int {
	if o.MaxBatchEdges < 1 || o.MaxBatchEdges > MaxBatchEdges {
		return MaxBatchEdges
	}
	return o.MaxBatchEdges
}

// Server accepts persistent binary ingest connections and feeds their
// record batches straight into the engines of a namespace directory. One
// goroutine per connection decodes the batch frames that have already
// arrived into one reusable run of at most maxCoalesce records and hands
// it to Engine.IngestRecords in one call — which blocks when
// shard mailboxes are full, so the connection simply stops reading and
// TCP flow control backpressures the producer; the server never buffers
// more than one run per connection. Acks are written from the same
// goroutine after the call returns, so an acknowledged watermark is
// always covered by the engine (and, on a durable engine, by the WAL,
// which the engine appends to before any shard sees the batch).
type Server struct {
	dir Directory
	opt Options

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup

	// streams maps namespace\x00stream → acknowledged watermark, so a
	// named stream survives reconnects with exactly-once ingest; busy
	// marks streams currently owned by a live connection (a second
	// connection to the same named stream is rejected, keeping the
	// watermark single-writer).
	streams map[string]int64
	busy    map[string]bool

	// Counters, exposed via Stats and the /metrics endpoint.
	connsTotal    atomic.Int64
	connsActive   atomic.Int64
	framesTotal   atomic.Int64
	edgesTotal    atomic.Int64
	acksTotal     atomic.Int64
	dupFrames     atomic.Int64
	rejects       atomic.Int64
	ingestErrors  atomic.Int64
	ingestStalls  atomic.Int64
	bytesReceived atomic.Int64
}

// NewServer returns a wire ingest server over the directory. Call
// Serve with one or more listeners; Close stops them all.
func NewServer(dir Directory, opt Options) *Server {
	return &Server{
		dir:       dir,
		opt:       opt,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		streams:   make(map[string]int64),
		busy:      make(map[string]bool),
	}
}

// Stats is a point-in-time read of the server's counters.
type Stats struct {
	// ConnsTotal counts accepted connections; ConnsActive the ones
	// currently open.
	ConnsTotal  int64 `json:"conns_total"`
	ConnsActive int64 `json:"conns_active"`
	// Frames counts accepted batch frames (duplicates included); Edges
	// the edges actually handed to the engine (after dedup trimming).
	Frames int64 `json:"frames"`
	Edges  int64 `json:"edges"`
	// Acks counts watermark acks written (hello-acks excluded).
	Acks int64 `json:"acks"`
	// DupFrames counts batch frames skipped entirely because a reconnect
	// resent data at or below the acknowledged watermark.
	DupFrames int64 `json:"dup_frames"`
	// Rejects counts protocol rejects: bad magic, malformed/oversized/
	// corrupt frames, unknown namespaces, engine or weight mismatches,
	// offset gaps, stream conflicts.
	Rejects int64 `json:"rejects"`
	// IngestErrors counts batches the engine refused (edge out of range,
	// engine closed, WAL failure).
	IngestErrors int64 `json:"ingest_errors"`
	// IngestStalls counts engine mailbox stalls observed while this
	// server's ingests were in flight — the backpressure events that
	// paused socket reads.
	IngestStalls int64 `json:"ingest_stalls"`
	// BytesReceived counts frame bytes accepted (headers + bodies).
	BytesReceived int64 `json:"bytes_received"`
}

// Stats returns the server's current counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsTotal:    s.connsTotal.Load(),
		ConnsActive:   s.connsActive.Load(),
		Frames:        s.framesTotal.Load(),
		Edges:         s.edgesTotal.Load(),
		Acks:          s.acksTotal.Load(),
		DupFrames:     s.dupFrames.Load(),
		Rejects:       s.rejects.Load(),
		IngestErrors:  s.ingestErrors.Load(),
		IngestStalls:  s.ingestStalls.Load(),
		BytesReceived: s.bytesReceived.Load(),
	}
}

// AppendMetrics contributes the server's counters to a /metrics scrape
// (server.MetricsSource).
func (s *Server) AppendMetrics(w *server.MetricsWriter) {
	st := s.Stats()
	w.Gauge("covserved_wire_connections_active", "Open wire ingest connections.", nil, float64(st.ConnsActive))
	w.Counter("covserved_wire_connections_total", "Accepted wire ingest connections.", nil, float64(st.ConnsTotal))
	w.Counter("covserved_wire_frames_total", "Accepted wire batch frames (duplicates included).", nil, float64(st.Frames))
	w.Counter("covserved_wire_edges_total", "Edges ingested over the wire plane.", nil, float64(st.Edges))
	w.Counter("covserved_wire_acks_total", "Watermark acks written.", nil, float64(st.Acks))
	w.Counter("covserved_wire_duplicate_frames_total", "Batch frames skipped as reconnect duplicates.", nil, float64(st.DupFrames))
	w.Counter("covserved_wire_protocol_rejects_total", "Connections rejected for protocol violations.", nil, float64(st.Rejects))
	w.Counter("covserved_wire_ingest_errors_total", "Batches the engine refused.", nil, float64(st.IngestErrors))
	w.Counter("covserved_wire_backpressure_stalls_total", "Engine mailbox stalls observed during wire ingest.", nil, float64(st.IngestStalls))
	w.Counter("covserved_wire_bytes_received_total", "Frame bytes accepted (headers and bodies).", nil, float64(st.BytesReceived))
}

// Serve accepts connections on ln until Close (or a listener error).
// It may be called concurrently with itself on different listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.connsActive.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.connsActive.Add(-1)
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
			}()
			if err := s.handleConn(c); err != nil && s.opt.OnError != nil {
				s.opt.OnError(fmt.Errorf("wire: conn %s: %w", c.RemoteAddr(), err))
			}
		}()
	}
}

// Close stops the listeners, closes every open connection and waits
// for the per-connection goroutines to drain. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// streamKey joins a namespace and stream id into a registry key; the
// NUL separator cannot appear in a namespace name (ValidateNamespaceName).
func streamKey(ns, stream string) string { return ns + "\x00" + stream }

// acquireStream looks up (and claims) a named stream's watermark.
func (s *Server) acquireStream(key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy[key] {
		return 0, false
	}
	s.busy[key] = true
	return s.streams[key], true
}

func (s *Server) releaseStream(key string) {
	s.mu.Lock()
	delete(s.busy, key)
	s.mu.Unlock()
}

func (s *Server) storeWatermark(key string, wm int64) {
	s.mu.Lock()
	s.streams[key] = wm
	s.mu.Unlock()
}

// reject counts a protocol reject and best-effort sends an error frame
// before the caller closes the connection.
func (s *Server) reject(bw *bufio.Writer, code uint16, format string, args ...interface{}) error {
	s.rejects.Add(1)
	msg := fmt.Sprintf(format, args...)
	frame := AppendFrame(nil, FrameError, AppendError(nil, code, msg))
	bw.Write(frame)
	bw.Flush()
	return fmt.Errorf("rejected (code %d): %s", code, msg)
}

// handleConn runs one ingest session: magic, hello handshake, then the
// batch loop. It returns nil on a clean client close and an error
// otherwise (already counted/acked as appropriate).
func (s *Server) handleConn(c net.Conn) error {
	// The read buffer holds a full run's records, so when the producer
	// keeps the socket full one read brings in the whole frames of a run
	// (frameArrived counts only frames the buffer already holds).
	br := bufio.NewReaderSize(c, 8*maxCoalesce)
	bw := bufio.NewWriterSize(c, 1<<12)

	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		s.rejects.Add(1)
		return fmt.Errorf("%w: reading magic: %v", ErrBadMagic, err)
	}
	if string(magic[:]) != Magic {
		return s.reject(bw, CodeBadFrame, "bad magic %q", magic)
	}

	maxBody := uint32(8 + 8*s.opt.maxBatch())
	buf := make([]byte, 0, 64<<10)
	typ, body, err := ReadFrame(br, buf, maxBody)
	if err != nil {
		s.rejects.Add(1)
		return fmt.Errorf("reading hello: %w", err)
	}
	if typ != FrameHello {
		return s.reject(bw, CodeBadFrame, "first frame type %d, want hello", typ)
	}
	hello, err := DecodeHello(body)
	if err != nil {
		return s.reject(bw, CodeBadFrame, "%v", err)
	}
	eng, ok := s.dir.Get(hello.Namespace)
	if !ok {
		return s.reject(bw, CodeUnknownNamespace, "unknown namespace %q", hello.Namespace)
	}
	// The same config validation the cluster plane applies before
	// merging a peer blob: a strict client states the engine mode (and
	// weight signature) it was built for, and a mismatch is a reject,
	// not a silently different dataset.
	if hello.Engine != "" && hello.Engine != string(eng.ModeName()) {
		return s.reject(bw, CodeEngineMismatch,
			"namespace %q runs engine %q, client expects %q", hello.Namespace, eng.ModeName(), hello.Engine)
	}
	if hello.CheckWeights && hello.WeightSig != eng.WeightSig() {
		return s.reject(bw, CodeWeightsMismatch,
			"namespace %q weight signature %d, client expects %d", hello.Namespace, eng.WeightSig(), hello.WeightSig)
	}
	// Ops negotiation: a session that may delete must say so up front,
	// and is turned away at the handshake — not at its first delete —
	// when the engine cannot honor it. Sessions that do not negotiate
	// ops keep the pre-extension handshake bytes exactly.
	if hello.Ops && !eng.SupportsDeletes() {
		return s.reject(bw, CodeOpsUnsupported,
			"namespace %q runs engine %q, which does not support delete ops", hello.Namespace, eng.ModeName())
	}

	var watermark int64
	key := ""
	if hello.Stream != "" {
		key = streamKey(hello.Namespace, hello.Stream)
		wm, ok := s.acquireStream(key)
		if !ok {
			return s.reject(bw, CodeStreamBusy,
				"stream %q on namespace %q is owned by another connection", hello.Stream, hello.Namespace)
		}
		defer s.releaseStream(key)
		watermark = wm
	}

	ackBody := AppendHelloAck(nil, HelloAck{
		Watermark:      watermark,
		NamespaceEdges: eng.IngestedEdges(),
		Engine:         string(eng.ModeName()),
		WeightSig:      eng.WeightSig(),
	})
	if _, err := bw.Write(AppendFrame(nil, FrameHelloAck, ackBody)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// The batch loop. The records of batch frames, edge and op frames
	// alike, are folded into one run — contiguous from the watermark — for
	// as long as the whole next frame has already arrived (frameArrived),
	// up to maxCoalesce records; then the run goes to the engine in one
	// IngestRecords call: one WAL frame and write, one route pass, one
	// mailbox message per shard and sub-batch for the whole run. An op
	// frame's deletes keep bipartite.OpDeleteBit in their set word, so the
	// run keeps the order of the inserts and deletes. The engine copies
	// the records before returning, so the run's buffer is reused by the
	// next one, and a connection holds at most one run.
	var (
		run        []bipartite.Edge
		frameSeen  int
		ackDue     bool
		ackEvery   = s.opt.ackEvery()
		ackScratch = make([]byte, 0, frameHeader+8)
	)
	writeAck := func() error {
		ackScratch = AppendFrame(ackScratch[:0], FrameAck, AppendAck(nil, watermark))
		if _, err := bw.Write(ackScratch); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		s.acksTotal.Add(1)
		return nil
	}
	// ingest hands the run to the engine. IngestRecords blocks while shard
	// mailboxes are full — that is the backpressure contract: this
	// goroutine stops reading the socket, the kernel's receive window
	// fills, and the producer stalls. The stall delta attributes engine
	// mailbox waits that overlapped this call to the wire plane. Every
	// path out of the loop calls it first, so what a connection accepted
	// reaches the engine before the connection returns or rejects.
	ingest := func() error {
		n := len(run)
		if n == 0 {
			return nil
		}
		stallsBefore := eng.IngestStalls()
		_, err := eng.IngestRecords(run)
		run = run[:0]
		if err != nil {
			s.ingestErrors.Add(1)
			return s.reject(bw, CodeIngest, "ingest: %v", err)
		}
		s.ingestStalls.Add(eng.IngestStalls() - stallsBefore)
		// The watermark advances only after the ingest returned: the
		// records are in the engine's accepted count — and, on a durable
		// engine, in the WAL, which the engine appends to before any shard
		// can observe the batch. An acked watermark therefore never exceeds
		// the engine's (or the log's) ingested-edge count.
		watermark += int64(n)
		if key != "" {
			s.storeWatermark(key, watermark)
		}
		s.edgesTotal.Add(int64(n))
		return nil
	}
	// settle ends a fold: the run goes to the engine, then the ack the
	// frames folded into it are owed.
	settle := func() error {
		if err := ingest(); err != nil {
			return err
		}
		if !ackDue {
			return nil
		}
		ackDue = false
		return writeAck()
	}
	// rejectAfterIngest rejects the connection once the run is in the
	// engine; an ingest failure is the reject it reports instead.
	rejectAfterIngest := func(code uint16, format string, args ...interface{}) error {
		if err := ingest(); err != nil {
			return err
		}
		return s.reject(bw, code, format, args...)
	}
	for {
		typ, body, err := ReadFrame(br, buf, maxBody)
		if err != nil {
			if ierr := ingest(); ierr != nil {
				return ierr
			}
			if err == io.EOF {
				return nil // clean client close
			}
			s.rejects.Add(1)
			if errors.Is(err, ErrTruncated) {
				return err // peer died mid-frame; nobody is listening for an error frame
			}
			return s.reject(bw, CodeBadFrame, "%v", err)
		}
		if cap(body) > cap(buf) {
			buf = body[:0] // keep the grown buffer for subsequent frames
		}
		s.bytesReceived.Add(int64(frameHeader + len(body)))
		switch typ {
		case FrameBatch, FrameOpBatch:
			// One arm for both frame types: both carry 8-byte records, an op
			// frame's with the kind in the set word, and offsets count
			// records whichever frame carried them, so a session may
			// interleave the two frame types against one watermark.
			isOps := typ == FrameOpBatch
			if isOps && !hello.Ops {
				return rejectAfterIngest(CodeOpsUnsupported, "op batch on a session that did not negotiate ops")
			}
			offset, recs, err := openBatch(body)
			if err != nil {
				return rejectAfterIngest(CodeBadFrame, "%v", err)
			}
			s.framesTotal.Add(1)
			n := len(recs) / 8
			// A run holds at most maxCoalesce records (a larger frame goes
			// alone): a frame that does not fit sends the run on first.
			if q := len(run); q > 0 && q+n > maxCoalesce {
				if err := ingest(); err != nil {
					return err
				}
			}
			// Dup, trim and gap are judged against the queued offset: the
			// watermark plus what the run already holds.
			next := watermark + int64(len(run))
			end := offset + int64(n)
			switch {
			case end <= next:
				// A reconnecting client legitimately resends from its last
				// ack; everything at or below the queued offset is already in
				// the engine or the run. Skipping (not re-ingesting) keeps the
				// stream exactly-once.
				s.dupFrames.Add(1)
			case offset > next:
				return rejectAfterIngest(CodeGap,
					"batch at offset %d leaves a gap after watermark %d", offset, next)
			default:
				// Trim the already-queued prefix of an overlapping resend.
				var sets uint32
				run, sets = appendEdges(run, recs[8*(next-offset):])
				if !isOps && sets&bipartite.OpDeleteBit != 0 {
					// An edge frame never deletes: a set word carrying the bit
					// is a set id out of range, for which Ingest refuses a
					// batch whole. The run is refused whole the same way.
					s.ingestErrors.Add(1)
					return s.reject(bw, CodeIngest,
						"ingest: edge frame at offset %d holds a set id at or above 1<<31, out of range", offset)
				}
			}
			frameSeen++
			if frameSeen%ackEvery == 0 {
				ackDue = true
			}
			if !frameArrived(br) || len(run) >= maxCoalesce {
				if err := settle(); err != nil {
					return err
				}
			}
		case FrameFlush:
			ackDue = true
			if err := settle(); err != nil {
				return err
			}
		case FrameHello:
			return rejectAfterIngest(CodeBadFrame, "duplicate hello")
		default:
			return rejectAfterIngest(CodeBadFrame, "unexpected frame type %d", typ)
		}
	}
}
