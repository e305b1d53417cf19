// Package wire is the high-throughput binary ingest plane: a
// persistent-connection, length-prefixed, CRC-framed edge-batch
// protocol that feeds the sharded engine directly, bypassing the
// per-request HTTP JSON surface. The core sketch absorbs a batched edge
// in tens of nanoseconds (core.add_edges.ns_per_edge on the bench/
// ladder); this protocol removes the encoding and request overhead
// between a producer and that hot path, with backpressure tied to the
// engine's bounded shard mailboxes: when they are full the server simply
// stops reading the socket, so TCP flow control pushes the stall back to
// the producer instead of buffering unboundedly anywhere.
//
// # Connection lifecycle
//
// A session opens with the 8-byte magic "COVWIRE1" (client → server),
// followed by frames in both directions. The client's first frame must
// be a hello naming the target namespace, an optional resumable stream
// id, and — when configured strictly — the engine mode name and weight
// signature it expects, which the server validates exactly like the
// cluster plane validates peer blobs. The server answers with a
// hello-ack carrying the stream's acknowledged edge watermark (0 for a
// new stream), then the client streams batch frames. The server
// periodically answers with ack frames carrying the watermark — the
// count of the stream's edges handed durably to the engine (after any
// WAL append: Engine.IngestRecords logs before it enqueues, and the ack
// is written only after it returns, so the watermark can never exceed
// the WAL/engine ingested-edge count). A flush frame forces an
// immediate ack; a protocol violation is answered with an error frame
// before the server closes the connection.
//
// # Frame format
//
// Every frame is
//
//	uint8   type     frame type (hello, helloAck, batch, ack, flush, error)
//	uint32  length   body size in bytes (bounded; see MaxFrameBody)
//	uint32  crc      CRC32C (Castagnoli) of the body
//	body…
//
// All integers are little-endian, matching the sketch and WAL wire
// formats. Batch bodies carry the cumulative edge offset of their first
// edge (exactly like WAL frames), so a reconnecting client resumes from
// the hello-ack watermark and the server deduplicates any overlap — the
// stream is ingested exactly once even across connection failures.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/bipartite"
)

// Magic opens every wire session (client → server, before any frame).
const Magic = "COVWIRE1"

// Frame types.
const (
	// FrameHello is the client's first frame: namespace, stream id and
	// the expected engine configuration.
	FrameHello byte = 1
	// FrameHelloAck is the server's hello answer: the stream's
	// acknowledged watermark and the engine's actual configuration.
	FrameHelloAck byte = 2
	// FrameBatch carries one edge batch at an explicit stream offset.
	FrameBatch byte = 3
	// FrameAck carries the server's acknowledged edge watermark.
	FrameAck byte = 4
	// FrameFlush asks the server for an immediate ack.
	FrameFlush byte = 5
	// FrameError carries a typed protocol reject; the server closes the
	// connection after sending one.
	FrameError byte = 6
	// FrameOpBatch carries one operation batch (inserts and deletes) at
	// an explicit stream offset — the dynamic engine's ingest frame. A
	// client may send it only after a hello with Ops set, which the
	// server accepts only when the target engine supports deletes; a
	// pre-extension server that never saw the flag rejects the unknown
	// frame type, so deletes are never silently dropped or misread.
	FrameOpBatch byte = 7
)

// frameHeader is the fixed frame prefix: type, body length, body CRC.
const frameHeader = 1 + 4 + 4

// MaxFrameBody bounds a frame body: 8 bytes of stream offset plus
// MaxBatchEdges 8-byte edge pairs, with headroom for the non-batch
// frame types. A reader rejects larger claimed lengths before
// allocating anything, so corrupt or hostile length prefixes cannot
// make it over-allocate.
const (
	// MaxBatchEdges is the largest edge count one batch frame may carry
	// (the same bound the HTTP plane's default MaxBatchEdges applies).
	MaxBatchEdges = 1 << 20
	// MaxFrameBody is the largest accepted frame body in bytes.
	MaxFrameBody = 8 + 8*MaxBatchEdges
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed protocol errors. Every malformed input decodes to one of these
// (wrapped with context), never to a panic; the server counts each as a
// protocol reject.
var (
	// ErrBadMagic reports a session that did not open with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrFrameTooLarge reports a frame whose claimed body length exceeds
	// MaxFrameBody (rejected before any allocation).
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum reports a frame body that fails its CRC32C.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTruncated reports a frame cut short by EOF mid-header or
	// mid-body.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadFrame reports a structurally invalid frame body (bad batch
	// size, overlong string, unknown type in context).
	ErrBadFrame = errors.New("wire: malformed frame")
)

// AppendFrame appends one framed message (header + body) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// ReadFrame reads one frame from r, reusing buf for the body when it is
// large enough. It returns the frame type and body (aliasing the
// returned buffer, valid until the next call reuses it). A clean EOF
// before any header byte returns io.EOF; every other failure maps to a
// typed error (ErrTruncated, ErrFrameTooLarge, ErrChecksum) so callers
// can count protocol rejects distinctly from transport errors. maxBody
// caps the accepted body length (0 selects MaxFrameBody); the cap is
// enforced before the body buffer is grown, so a hostile length prefix
// cannot force an over-allocation.
func ReadFrame(r io.Reader, buf []byte, maxBody uint32) (typ byte, body []byte, err error) {
	if maxBody == 0 || maxBody > MaxFrameBody {
		maxBody = MaxFrameBody
	}
	var header [frameHeader]byte
	if _, err := io.ReadFull(r, header[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading type: %v", ErrTruncated, err)
	}
	if _, err := io.ReadFull(r, header[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	typ = header[0]
	length := binary.LittleEndian.Uint32(header[1:5])
	if length > maxBody {
		return typ, nil, fmt.Errorf("%w: claimed body of %d bytes (limit %d)", ErrFrameTooLarge, length, maxBody)
	}
	if uint32(cap(buf)) < length {
		buf = make([]byte, length)
	}
	body = buf[:length]
	if _, err := io.ReadFull(r, body); err != nil {
		return typ, nil, fmt.Errorf("%w: reading %d-byte body: %v", ErrTruncated, length, err)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(header[5:9]) {
		return typ, nil, fmt.Errorf("%w: %d-byte body of frame type %d", ErrChecksum, length, typ)
	}
	return typ, body, nil
}

// Hello is the client's opening frame: which namespace (and resumable
// stream) it feeds, and what engine configuration it expects.
type Hello struct {
	// Namespace is the target namespace name (required).
	Namespace string
	// Stream is a client-chosen resumable stream id. A named stream's
	// acknowledged watermark survives reconnects (the server remembers
	// it and deduplicates resent frames); the empty stream is anonymous
	// and starts at watermark 0 on every connection.
	Stream string
	// Engine, when non-empty, must equal the target engine's mode name
	// ("sketch", "weighted", "dynamic") or the hello is rejected —
	// the same advisory-made-strict validation the cluster plane applies
	// to the X-Cov-Engine header.
	Engine string
	// CheckWeights makes the server compare WeightSig against the
	// engine's weight signature and reject on mismatch.
	CheckWeights bool
	// Ops announces that the session may send op-batch frames (inserts
	// and deletes). The server rejects the hello with CodeOpsUnsupported
	// unless the target engine supports deletes, so a client learns at
	// handshake time — not first-delete time — that it picked the wrong
	// engine. Plain edge-batch sessions leave it unset and their hello
	// bytes are unchanged from the pre-extension protocol.
	Ops bool
	// WeightSig is the expected weight-table signature (0 = unweighted);
	// only compared when CheckWeights is set.
	WeightSig uint64
}

// maxHelloString bounds each hello string field (namespace names are
// already ≤64 bytes; stream ids get the same order of bound).
const maxHelloString = 256

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: short string length", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxHelloString {
		return "", nil, fmt.Errorf("%w: %d-byte string exceeds limit %d", ErrBadFrame, n, maxHelloString)
	}
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: string of %d bytes in %d-byte tail", ErrBadFrame, n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

// AppendHello encodes h as a hello frame body.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	for _, s := range []string{h.Namespace, h.Stream, h.Engine} {
		if len(s) > maxHelloString {
			return dst, fmt.Errorf("%w: hello string of %d bytes exceeds limit %d", ErrBadFrame, len(s), maxHelloString)
		}
	}
	var flags byte
	if h.CheckWeights {
		flags |= 1
	}
	if h.Ops {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = appendString(dst, h.Namespace)
	dst = appendString(dst, h.Stream)
	dst = appendString(dst, h.Engine)
	return binary.LittleEndian.AppendUint64(dst, h.WeightSig), nil
}

// DecodeHello decodes a hello frame body.
func DecodeHello(body []byte) (Hello, error) {
	var h Hello
	if len(body) < 1 {
		return h, fmt.Errorf("%w: empty hello", ErrBadFrame)
	}
	h.CheckWeights = body[0]&1 != 0
	h.Ops = body[0]&2 != 0
	rest := body[1:]
	var err error
	if h.Namespace, rest, err = decodeString(rest); err != nil {
		return h, fmt.Errorf("hello namespace: %w", err)
	}
	if h.Stream, rest, err = decodeString(rest); err != nil {
		return h, fmt.Errorf("hello stream: %w", err)
	}
	if h.Engine, rest, err = decodeString(rest); err != nil {
		return h, fmt.Errorf("hello engine: %w", err)
	}
	if len(rest) != 8 {
		return h, fmt.Errorf("%w: hello tail of %d bytes, want 8", ErrBadFrame, len(rest))
	}
	h.WeightSig = binary.LittleEndian.Uint64(rest)
	return h, nil
}

// HelloAck is the server's hello answer.
type HelloAck struct {
	// Watermark is the stream's acknowledged edge count: a reconnecting
	// client resumes sending at this offset.
	Watermark int64
	// NamespaceEdges is the namespace's total ingested-edge count at
	// accept time (informational).
	NamespaceEdges int64
	// Engine is the engine's actual mode name; WeightSig its actual
	// weight signature — so even non-strict clients can introspect what
	// they connected to.
	Engine    string
	WeightSig uint64
}

// AppendHelloAck encodes a as a hello-ack frame body.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.Watermark))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.NamespaceEdges))
	dst = appendString(dst, a.Engine)
	return binary.LittleEndian.AppendUint64(dst, a.WeightSig)
}

// DecodeHelloAck decodes a hello-ack frame body.
func DecodeHelloAck(body []byte) (HelloAck, error) {
	var a HelloAck
	if len(body) < 16 {
		return a, fmt.Errorf("%w: hello-ack of %d bytes", ErrBadFrame, len(body))
	}
	wm := binary.LittleEndian.Uint64(body)
	ns := binary.LittleEndian.Uint64(body[8:])
	if wm > math.MaxInt64 || ns > math.MaxInt64 {
		return a, fmt.Errorf("%w: negative hello-ack counters", ErrBadFrame)
	}
	a.Watermark, a.NamespaceEdges = int64(wm), int64(ns)
	rest := body[16:]
	var err error
	if a.Engine, rest, err = decodeString(rest); err != nil {
		return a, fmt.Errorf("hello-ack engine: %w", err)
	}
	if len(rest) != 8 {
		return a, fmt.Errorf("%w: hello-ack tail of %d bytes, want 8", ErrBadFrame, len(rest))
	}
	a.WeightSig = binary.LittleEndian.Uint64(rest)
	return a, nil
}

// beginBatch is the head of both batch codecs' encoders: it checks the
// record count and offset against the protocol limits and appends the
// offset of the batch's first record.
func beginBatch(dst []byte, offset int64, n int) ([]byte, error) {
	if n > MaxBatchEdges {
		return dst, fmt.Errorf("%w: batch of %d records exceeds limit %d", ErrBadFrame, n, MaxBatchEdges)
	}
	if offset < 0 {
		return dst, fmt.Errorf("%w: negative batch offset %d", ErrBadFrame, offset)
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(offset)), nil
}

// openBatch is the head of both batch codecs' decoders: it checks the
// body's shape and returns the offset and the 8-byte records after it.
func openBatch(body []byte) (offset int64, recs []byte, err error) {
	if len(body) < 8 || (len(body)-8)%8 != 0 {
		return 0, nil, fmt.Errorf("%w: batch body of %d bytes", ErrBadFrame, len(body))
	}
	off := binary.LittleEndian.Uint64(body)
	if off > math.MaxInt64 {
		return 0, nil, fmt.Errorf("%w: batch offset overflows int64", ErrBadFrame)
	}
	return int64(off), body[8:], nil
}

// AppendBatch encodes a batch frame body: the stream offset of the
// first edge, then the edges as (set, elem) uint32 pairs, one 8-byte
// word each.
func AppendBatch(dst []byte, offset int64, edges []bipartite.Edge) ([]byte, error) {
	dst, err := beginBatch(dst, offset, len(edges))
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 8*len(edges))
	for _, e := range edges {
		dst = binary.LittleEndian.AppendUint64(dst, bipartite.RecordWord(e.Set, e.Elem))
	}
	return dst, nil
}

// DecodeBatch decodes a batch frame body into *edges, reusing its
// capacity; when it must grow, it grows to exactly the frame's records.
func DecodeBatch(body []byte, edges *[]bipartite.Edge) (offset int64, err error) {
	offset, recs, err := openBatch(body)
	if err != nil {
		return 0, err
	}
	*edges, _ = appendEdges(reuse(*edges, len(recs)/8), recs)
	return offset, nil
}

// reuse returns buf emptied, or a new empty slice when buf cannot hold n
// records — so a session's decode buffer is sized by its largest frame,
// not by what append's growth would round that to.
func reuse[R any](buf []R, n int) []R {
	if cap(buf) < n {
		return make([]R, 0, n)
	}
	return buf[:0]
}

// appendEdges decodes 8-byte records onto dst, one load each, and
// returns the OR of their set words: its bipartite.OpDeleteBit tells
// whether any record carries a delete, without a second pass.
func appendEdges(dst []bipartite.Edge, recs []byte) ([]bipartite.Edge, uint32) {
	dst = slices.Grow(dst, len(recs)/8)
	var sets uint32
	for ; len(recs) >= 8; recs = recs[8:] {
		w := binary.LittleEndian.Uint64(recs)
		sets |= uint32(w)
		dst = append(dst, bipartite.Edge{Set: uint32(w), Elem: uint32(w >> 32)})
	}
	return dst, sets
}

// AppendOpBatch encodes an op-batch frame body: the stream offset of
// the first op, then the ops as bipartite.PackOp records — the WAL's op
// record, so the two planes cannot drift apart. Offsets count ops, so
// the watermark arithmetic of the batch plane carries over unchanged.
func AppendOpBatch(dst []byte, offset int64, ops []bipartite.Op) ([]byte, error) {
	dst, err := beginBatch(dst, offset, len(ops))
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, 8*len(ops))
	for _, op := range ops {
		if op.Kind > bipartite.OpDelete {
			return dst, fmt.Errorf("%w: unknown op kind %d", ErrBadFrame, op.Kind)
		}
		if op.Edge.Set&bipartite.OpDeleteBit != 0 {
			return dst, fmt.Errorf("%w: set id %d collides with the delete flag", ErrBadFrame, op.Edge.Set)
		}
		dst = binary.LittleEndian.AppendUint64(dst, bipartite.RecordWord(bipartite.PackOp(op), op.Edge.Elem))
	}
	return dst, nil
}

// DecodeOpBatch decodes an op-batch frame body into *ops, with the same
// buffer-reuse contract as DecodeBatch.
func DecodeOpBatch(body []byte, ops *[]bipartite.Op) (offset int64, err error) {
	offset, recs, err := openBatch(body)
	if err != nil {
		return 0, err
	}
	dst := reuse(*ops, len(recs)/8)
	for ; len(recs) >= 8; recs = recs[8:] {
		w := binary.LittleEndian.Uint64(recs)
		dst = append(dst, bipartite.UnpackOp(uint32(w), uint32(w>>32)))
	}
	*ops = dst
	return offset, nil
}

// AppendAck encodes an ack frame body.
func AppendAck(dst []byte, watermark int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(watermark))
}

// DecodeAck decodes an ack frame body.
func DecodeAck(body []byte) (int64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: ack body of %d bytes, want 8", ErrBadFrame, len(body))
	}
	wm := binary.LittleEndian.Uint64(body)
	if wm > math.MaxInt64 {
		return 0, fmt.Errorf("%w: ack watermark overflows int64", ErrBadFrame)
	}
	return int64(wm), nil
}

// Error codes carried by error frames.
const (
	// CodeBadFrame: structurally invalid or oversized frame.
	CodeBadFrame uint16 = 1
	// CodeUnknownNamespace: the hello named a namespace that does not exist.
	CodeUnknownNamespace uint16 = 2
	// CodeEngineMismatch: the hello's engine expectation failed.
	CodeEngineMismatch uint16 = 3
	// CodeWeightsMismatch: the hello's weight-signature expectation failed.
	CodeWeightsMismatch uint16 = 4
	// CodeGap: a batch frame started beyond the acknowledged watermark.
	CodeGap uint16 = 5
	// CodeIngest: the engine rejected the batch (edge out of range,
	// engine closed, WAL failure).
	CodeIngest uint16 = 6
	// CodeStreamBusy: the named stream is owned by another live
	// connection (named streams are single-writer so the resumable
	// watermark stays consistent).
	CodeStreamBusy uint16 = 7
	// CodeOpsUnsupported: the hello requested op batches (Hello.Ops) but
	// the target engine cannot apply deletes, or an op-batch frame
	// arrived on a session that never negotiated ops.
	CodeOpsUnsupported uint16 = 8
)

// WireError is a protocol reject the server sent before closing the
// connection.
type WireError struct {
	Code    uint16
	Message string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("wire: server rejected (code %d): %s", e.Code, e.Message)
}

// AppendError encodes an error frame body.
func AppendError(dst []byte, code uint16, msg string) []byte {
	if len(msg) > maxHelloString {
		msg = msg[:maxHelloString]
	}
	dst = binary.LittleEndian.AppendUint16(dst, code)
	return appendString(dst, msg)
}

// DecodeError decodes an error frame body.
func DecodeError(body []byte) (*WireError, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("%w: error body of %d bytes", ErrBadFrame, len(body))
	}
	code := binary.LittleEndian.Uint16(body)
	msg, rest, err := decodeString(body[2:])
	if err != nil {
		return nil, fmt.Errorf("error message: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after error message", ErrBadFrame, len(rest))
	}
	return &WireError{Code: code, Message: msg}, nil
}
