package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// --- frame-level round trips ---

func randomEdges(rng *rand.Rand, n, numSets int) []bipartite.Edge {
	edges := make([]bipartite.Edge, n)
	for i := range edges {
		edges[i] = bipartite.Edge{Set: uint32(rng.Intn(numSets)), Elem: rng.Uint32()}
	}
	return edges
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, body := range [][]byte{nil, {}, {7}, bytes.Repeat([]byte{0xAB}, 1024)} {
		framed := AppendFrame(nil, FrameBatch, body)
		typ, got, err := ReadFrame(bytes.NewReader(framed), nil, 0)
		if err != nil {
			t.Fatalf("ReadFrame(%d-byte body): %v", len(body), err)
		}
		if typ != FrameBatch || !bytes.Equal(got, body) {
			t.Fatalf("round trip mismatch: typ=%d body %d bytes", typ, len(got))
		}
	}
	// Several frames back to back through one reader, buffer reused.
	var stream []byte
	var bodies [][]byte
	for i := 0; i < 16; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		bodies = append(bodies, b)
		stream = AppendFrame(stream, byte(i%6+1), b)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range bodies {
		typ, body, err := ReadFrame(r, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i%6+1) || !bytes.Equal(body, want) {
			t.Fatalf("frame %d mismatch", i)
		}
		buf = body[:0]
	}
	if _, _, err := ReadFrame(r, buf, 0); err != io.EOF {
		t.Fatalf("after last frame: err=%v, want io.EOF", err)
	}
}

func TestReadFrameTypedErrors(t *testing.T) {
	good := AppendFrame(nil, FrameAck, AppendAck(nil, 42))

	// Truncations at every prefix length: mid-header and mid-body are
	// ErrTruncated, zero bytes is a clean io.EOF.
	for cut := 0; cut < len(good); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(good[:cut]), nil, 0)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: err=%v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err=%v, want ErrTruncated", cut, err)
		}
	}

	// Oversized claimed length is rejected before allocation.
	big := make([]byte, frameHeader)
	big[0] = FrameBatch
	binary.LittleEndian.PutUint32(big[1:], MaxFrameBody+1)
	if _, _, err := ReadFrame(bytes.NewReader(big), nil, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: err=%v, want ErrFrameTooLarge", err)
	}
	// ... and against a caller-supplied tighter cap.
	tight := AppendFrame(nil, FrameBatch, make([]byte, 100))
	if _, _, err := ReadFrame(bytes.NewReader(tight), nil, 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over cap: err=%v, want ErrFrameTooLarge", err)
	}

	// A flipped body bit fails the CRC.
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, _, err := ReadFrame(bytes.NewReader(corrupt), nil, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt body: err=%v, want ErrChecksum", err)
	}
	// A flipped CRC byte too.
	corrupt = append([]byte(nil), good...)
	corrupt[5] ^= 0x80
	if _, _, err := ReadFrame(bytes.NewReader(corrupt), nil, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt crc: err=%v, want ErrChecksum", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{},
		{Namespace: "default"},
		{Namespace: "ns-1", Stream: "loader/7", Engine: "sketch"},
		{Namespace: "w", Engine: "weighted", CheckWeights: true, WeightSig: 0xDEADBEEFCAFE},
	} {
		body, err := AppendHello(nil, h)
		if err != nil {
			t.Fatalf("AppendHello(%+v): %v", h, err)
		}
		got, err := DecodeHello(body)
		if err != nil {
			t.Fatalf("DecodeHello(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("hello round trip: got %+v, want %+v", got, h)
		}
	}
	// Overlong strings are refused on the encode side...
	long := string(bytes.Repeat([]byte{'x'}, maxHelloString+1))
	if _, err := AppendHello(nil, Hello{Namespace: long}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong namespace: err=%v, want ErrBadFrame", err)
	}
	// ... and on the decode side.
	bad := []byte{0}
	bad = binary.LittleEndian.AppendUint16(bad, maxHelloString+1)
	bad = append(bad, bytes.Repeat([]byte{'x'}, maxHelloString+1)...)
	if _, err := DecodeHello(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("decode overlong: err=%v, want ErrBadFrame", err)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, a := range []HelloAck{
		{},
		{Watermark: 12345, NamespaceEdges: 999999, Engine: "sieve", WeightSig: 7},
	} {
		got, err := DecodeHelloAck(AppendHelloAck(nil, a))
		if err != nil {
			t.Fatalf("DecodeHelloAck(%+v): %v", a, err)
		}
		if got != a {
			t.Fatalf("hello-ack round trip: got %+v, want %+v", got, a)
		}
	}
	if _, err := DecodeHelloAck([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short hello-ack: err=%v, want ErrBadFrame", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var edges []bipartite.Edge
	for _, n := range []int{0, 1, 7, 1000} {
		want := randomEdges(rng, n, 1000)
		body, err := AppendBatch(nil, int64(n)*31, want)
		if err != nil {
			t.Fatalf("AppendBatch(%d edges): %v", n, err)
		}
		off, err := DecodeBatch(body, &edges)
		if err != nil {
			t.Fatalf("DecodeBatch(%d edges): %v", n, err)
		}
		if off != int64(n)*31 || len(edges) != n {
			t.Fatalf("batch round trip: off=%d len=%d", off, len(edges))
		}
		for i := range want {
			if edges[i] != want[i] {
				t.Fatalf("edge %d mismatch: %v != %v", i, edges[i], want[i])
			}
		}
	}
	if _, err := AppendBatch(nil, -1, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("negative offset: err=%v, want ErrBadFrame", err)
	}
	if _, err := DecodeBatch([]byte{1, 2, 3}, &edges); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short batch: err=%v, want ErrBadFrame", err)
	}
	if _, err := DecodeBatch(make([]byte, 8+4), &edges); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ragged batch: err=%v, want ErrBadFrame", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	got, err := DecodeError(AppendError(nil, CodeGap, "offset 9 after watermark 3"))
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if got.Code != CodeGap || got.Message != "offset 9 after watermark 3" {
		t.Fatalf("error round trip: %+v", got)
	}
	// Overlong messages are truncated, not refused.
	long := string(bytes.Repeat([]byte{'m'}, 2*maxHelloString))
	got, err = DecodeError(AppendError(nil, CodeIngest, long))
	if err != nil {
		t.Fatalf("DecodeError(truncated msg): %v", err)
	}
	if len(got.Message) != maxHelloString {
		t.Fatalf("message not truncated: %d bytes", len(got.Message))
	}
}

// --- session tests over a real listener ---

type testEnv struct {
	multi *server.Multi
	srv   *Server
	addr  string
}

func newTestEnv(t *testing.T, cfgs map[string]server.Config, opt Options) *testEnv {
	t.Helper()
	m := server.NewMulti("")
	for name, cfg := range cfgs {
		if _, err := m.Create(name, cfg); err != nil {
			t.Fatalf("Create(%q): %v", name, err)
		}
	}
	s := NewServer(m, opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return &testEnv{multi: m, srv: s, addr: ln.Addr().String()}
}

func baseConfig() server.Config {
	return server.Config{NumSets: 64, K: 4, Eps: 0.5, Seed: 11, Shards: 2}
}

func TestSessionIngest(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{AckEvery: 4})
	eng, _ := env.multi.Get("default")

	conn, err := Dial(env.addr, Hello{Namespace: "default", Engine: "sketch"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if hs := conn.Handshake(); hs.Watermark != 0 || hs.Engine != "sketch" {
		t.Fatalf("handshake: %+v", hs)
	}

	rng := rand.New(rand.NewSource(3))
	total := 0
	for i := 0; i < 25; i++ {
		batch := randomEdges(rng, 40, 64)
		if err := conn.Send(batch); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		total += len(batch)
	}
	if err := conn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if wm := conn.Watermark(); wm != int64(total) {
		t.Fatalf("watermark %d after flush, want %d", wm, total)
	}
	if got := eng.IngestedEdges(); got != int64(total) {
		t.Fatalf("engine ingested %d, want %d", got, total)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := env.srv.Stats()
	if st.Frames != 25 || st.Edges != int64(total) || st.Acks == 0 || st.Rejects != 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if st.BytesReceived == 0 {
		t.Fatalf("bytes received not counted")
	}
}

func TestSessionRejects(t *testing.T) {
	cfg := baseConfig()
	weighted := baseConfig()
	weighted.Weights = &server.WeightConfig{Default: 1}
	env := newTestEnv(t, map[string]server.Config{"default": cfg, "wt": weighted}, Options{})
	eng, _ := env.multi.Get("default")

	cases := []struct {
		name  string
		hello Hello
		code  uint16
	}{
		{"unknown namespace", Hello{Namespace: "nope"}, CodeUnknownNamespace},
		{"engine mismatch", Hello{Namespace: "wt", Engine: "sketch"}, CodeEngineMismatch},
		{"weights mismatch", Hello{Namespace: "default", CheckWeights: true, WeightSig: eng.WeightSig() + 1}, CodeWeightsMismatch},
	}
	for _, tc := range cases {
		_, err := Dial(env.addr, tc.hello)
		var werr *WireError
		if !errors.As(err, &werr) || werr.Code != tc.code {
			t.Fatalf("%s: err=%v, want WireError code %d", tc.name, err, tc.code)
		}
	}

	// A named stream is single-writer: the second connection is refused.
	c1, err := Dial(env.addr, Hello{Namespace: "default", Stream: "s1"})
	if err != nil {
		t.Fatalf("Dial stream: %v", err)
	}
	defer c1.Abort()
	_, err = Dial(env.addr, Hello{Namespace: "default", Stream: "s1"})
	var werr *WireError
	if !errors.As(err, &werr) || werr.Code != CodeStreamBusy {
		t.Fatalf("busy stream: err=%v, want WireError code %d", err, CodeStreamBusy)
	}

	if got := env.srv.Stats().Rejects; got != 4 {
		t.Fatalf("rejects=%d, want 4", got)
	}
}

// rawSession opens a TCP connection and performs the handshake by hand,
// so tests can send frames the well-behaved client never produces.
type rawSession struct {
	t  *testing.T
	nc net.Conn
}

func newRawSession(t *testing.T, addr string, hello Hello) *rawSession {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	body, err := AppendHello(nil, hello)
	if err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	if _, err := nc.Write(append([]byte(Magic), AppendFrame(nil, FrameHello, body)...)); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	s := &rawSession{t: t, nc: nc}
	typ, ackBody := s.readFrame()
	if typ != FrameHelloAck {
		t.Fatalf("handshake answered with frame type %d", typ)
	}
	if _, err := DecodeHelloAck(ackBody); err != nil {
		t.Fatalf("DecodeHelloAck: %v", err)
	}
	return s
}

func (s *rawSession) send(frame []byte) {
	s.t.Helper()
	if _, err := s.nc.Write(frame); err != nil {
		s.t.Fatalf("write frame: %v", err)
	}
}

func (s *rawSession) readFrame() (byte, []byte) {
	s.t.Helper()
	s.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, body, err := ReadFrame(s.nc, nil, 0)
	if err != nil {
		s.t.Fatalf("read frame: %v", err)
	}
	return typ, body
}

func (s *rawSession) expectError(code uint16) {
	s.t.Helper()
	typ, body := s.readFrame()
	if typ != FrameError {
		s.t.Fatalf("frame type %d, want error", typ)
	}
	werr, err := DecodeError(body)
	if err != nil {
		s.t.Fatalf("DecodeError: %v", err)
	}
	if werr.Code != code {
		s.t.Fatalf("error code %d (%s), want %d", werr.Code, werr.Message, code)
	}
}

func batchFrame(t *testing.T, offset int64, edges []bipartite.Edge) []byte {
	t.Helper()
	body, err := AppendBatch(nil, offset, edges)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	return AppendFrame(nil, FrameBatch, body)
}

// opBatchFrame is batchFrame for the op plane: edges go out as insert
// ops, except that every third one is retracted again.
func opBatchFrame(t *testing.T, offset int64, edges []bipartite.Edge) []byte {
	t.Helper()
	ops := bipartite.Inserts(edges)
	for i := 2; i < len(ops); i += 3 {
		ops[i] = bipartite.Op{Kind: bipartite.OpDelete, Edge: edges[i-1]}
	}
	body, err := AppendOpBatch(nil, offset, ops)
	if err != nil {
		t.Fatalf("AppendOpBatch: %v", err)
	}
	return AppendFrame(nil, FrameOpBatch, body)
}

// TestServerDedupGapAndTrim runs the exactly-once cases over both batch
// frame types: the server has one arm for them, and offsets count
// records whichever type carries them.
func TestServerDedupGapAndTrim(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   server.Config
		hello Hello
		frame func(*testing.T, int64, []bipartite.Edge) []byte
	}{
		{"FrameBatch", baseConfig(), Hello{Namespace: "default", Stream: "replay"}, batchFrame},
		{"FrameOpBatch", dynConfig(), Hello{Namespace: "default", Stream: "replay", Ops: true}, opBatchFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, map[string]server.Config{"default": tc.cfg}, Options{AckEvery: 1})
			eng, _ := env.multi.Get("default")
			rng := rand.New(rand.NewSource(4))
			edges := randomEdges(rng, 20, 64)

			s := newRawSession(t, env.addr, tc.hello)

			// Fresh batch [0,10).
			s.send(tc.frame(t, 0, edges[:10]))
			if typ, body := s.readFrame(); typ != FrameAck {
				t.Fatalf("frame type %d, want ack", typ)
			} else if wm, _ := DecodeAck(body); wm != 10 {
				t.Fatalf("ack watermark %d, want 10", wm)
			}

			// Exact duplicate — skipped entirely, watermark unchanged.
			s.send(tc.frame(t, 0, edges[:10]))
			if typ, body := s.readFrame(); typ != FrameAck {
				t.Fatalf("frame type %d, want ack", typ)
			} else if wm, _ := DecodeAck(body); wm != 10 {
				t.Fatalf("dup ack watermark %d, want 10", wm)
			}

			// Partial overlap [5,20): only records [10,20) are ingested.
			s.send(tc.frame(t, 5, edges[5:]))
			if typ, body := s.readFrame(); typ != FrameAck {
				t.Fatalf("frame type %d, want ack", typ)
			} else if wm, _ := DecodeAck(body); wm != 20 {
				t.Fatalf("trim ack watermark %d, want 20", wm)
			}

			if got := eng.IngestedEdges(); got != 20 {
				t.Fatalf("engine ingested %d, want 20 (dedup failed)", got)
			}
			st := env.srv.Stats()
			if st.DupFrames != 1 {
				t.Fatalf("dup frames %d, want 1", st.DupFrames)
			}
			if st.Edges != 20 {
				t.Fatalf("wire plane handed over %d records, want 20 (trim failed)", st.Edges)
			}

			// A gap beyond the watermark is a reject.
			s.send(tc.frame(t, 25, edges[:5]))
			s.expectError(CodeGap)
		})
	}
}

func TestServerRejectsMalformedFrames(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{})

	// Bad magic closes the session with an error frame.
	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	nc.Write([]byte("NOTMAGIC"))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, body, err := ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatalf("read reject: %v", err)
	}
	if typ != FrameError {
		t.Fatalf("frame type %d, want error", typ)
	}
	if werr, _ := DecodeError(body); werr == nil || werr.Code != CodeBadFrame {
		t.Fatalf("bad magic answer: %v", werr)
	}
	nc.Close()

	// A corrupt batch body (CRC flip) after a valid handshake.
	s := newRawSession(t, env.addr, Hello{Namespace: "default"})
	frame := batchFrame(t, 0, []bipartite.Edge{{Set: 1, Elem: 2}})
	frame[len(frame)-1] ^= 0x01
	s.send(frame)
	s.expectError(CodeBadFrame)

	// An out-of-range edge is an ingest reject.
	s2 := newRawSession(t, env.addr, Hello{Namespace: "default"})
	s2.send(batchFrame(t, 0, []bipartite.Edge{{Set: 1 << 20, Elem: 0}}))
	s2.expectError(CodeIngest)
	if got := env.srv.Stats().IngestErrors; got != 1 {
		t.Fatalf("ingest errors %d, want 1", got)
	}
}

// dialRetryBusy dials like a reconnecting producer: a named stream is
// released only when the server notices the old connection died, so a
// brief CodeStreamBusy window after an abort is expected and retried.
func dialRetryBusy(addr string, hello Hello) (*Conn, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(addr, hello)
		var werr *WireError
		if errors.As(err, &werr) && werr.Code == CodeStreamBusy && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		return c, err
	}
}

func TestReconnectResumesFromWatermark(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{AckEvery: 2})
	eng, _ := env.multi.Get("default")
	rng := rand.New(rand.NewSource(5))
	edges := randomEdges(rng, 1000, 64)

	// First connection sends some prefix, then dies without flushing.
	c1, err := Dial(env.addr, Hello{Namespace: "default", Stream: "loader"})
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	sent := 0
	for sent < 600 {
		if err := c1.Send(edges[sent : sent+50]); err != nil {
			t.Fatalf("Send: %v", err)
		}
		sent += 50
	}
	c1.Abort()

	// The reconnect learns the acknowledged watermark and resumes there;
	// resending everything from the watermark (even already-ingested
	// overlap would be deduped — here the watermark is exact). The stream
	// stays busy until the server notices the dropped connection, so a
	// reconnecting client retries on CodeStreamBusy.
	c2, err := dialRetryBusy(env.addr, Hello{Namespace: "default", Stream: "loader"})
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	wm := c2.Handshake().Watermark
	if wm < 0 || wm > int64(sent) {
		t.Fatalf("resume watermark %d outside [0,%d]", wm, sent)
	}
	if wm != eng.IngestedEdges() {
		t.Fatalf("resume watermark %d != engine ingested %d", wm, eng.IngestedEdges())
	}
	for off := int(wm); off < len(edges); {
		n := 64
		if off+n > len(edges) {
			n = len(edges) - off
		}
		if err := c2.Send(edges[off : off+n]); err != nil {
			t.Fatalf("resume Send: %v", err)
		}
		off += n
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := eng.IngestedEdges(); got != int64(len(edges)) {
		t.Fatalf("engine ingested %d, want %d (exactly-once violated)", got, len(edges))
	}
}

// TestBackpressureRaceInvariant hammers a 1-slot-mailbox engine over the
// wire while Refresh and Checkpoint run concurrently, and continuously
// asserts the ack-watermark contract: the client's acknowledged
// watermark never exceeds the engine's ingested-edge count (which the
// WAL covers, since Ingest appends before it enqueues). Run with -race.
func TestBackpressureRaceInvariant(t *testing.T) {
	cfg := baseConfig()
	cfg.Shards = 2
	cfg.QueueDepth = 1 // 1-slot mailboxes: every burst stalls
	cfg.WAL = &server.WALConfig{Dir: t.TempDir(), Fsync: "off"}
	env := newTestEnv(t, map[string]server.Config{"default": cfg}, Options{AckEvery: 4})
	eng, _ := env.multi.Get("default")

	conn, err := Dial(env.addr, Hello{Namespace: "default", Stream: "blast"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	const (
		batches   = 400
		batchSize = 256
	)
	rng := rand.New(rand.NewSource(6))
	edges := randomEdges(rng, batchSize, 64)

	var (
		stop     atomic.Bool
		violated atomic.Int64
		wg       sync.WaitGroup
	)
	// Invariant sampler: watermark first, engine count second — the
	// engine count can only have grown in between, so watermark ≤ count
	// must hold at every sample if the ack contract is honored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			wm := conn.Watermark()
			ingested := eng.IngestedEdges()
			if wm > ingested {
				violated.Store(wm - ingested)
				return
			}
		}
	}()
	// Concurrent merge and checkpoint pressure.
	for _, work := range []func(){
		func() { eng.Refresh() },
		func() { eng.Checkpoint() },
	} {
		wg.Add(1)
		go func(work func()) {
			defer wg.Done()
			for !stop.Load() {
				work()
			}
		}(work)
	}

	// Bursts of burst frames, each ended by a flush: the server folds a
	// burst into one Ingest of burst×batchSize records, which routes into
	// several mailbox messages per shard, so the 1-slot mailboxes stall in
	// every burst, and there are still batches/burst Ingest calls for the
	// refreshes and checkpoints to cut between.
	const burst = 16
	for i := 0; i < batches; i++ {
		if err := conn.Send(edges); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if (i+1)%burst == 0 {
			if err := conn.Flush(); err != nil {
				t.Fatalf("Flush after send %d: %v", i, err)
			}
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	if d := violated.Load(); d != 0 {
		t.Fatalf("ack watermark exceeded engine ingested count by %d", d)
	}
	want := int64(batches * batchSize)
	if got := conn.Watermark(); got != want {
		t.Fatalf("final watermark %d, want %d", got, want)
	}
	if got := eng.IngestedEdges(); got != want {
		t.Fatalf("engine ingested %d, want %d", got, want)
	}
	if stalls := env.srv.Stats().IngestStalls; stalls == 0 {
		t.Fatalf("no backpressure stalls observed with 1-slot mailboxes")
	}
	conn.Close()
}

// TestNoOverAllocation feeds a frame claiming a huge body and verifies
// the reader rejects it without growing the buffer.
func TestNoOverAllocation(t *testing.T) {
	header := make([]byte, frameHeader)
	header[0] = FrameBatch
	binary.LittleEndian.PutUint32(header[1:], MaxFrameBody) // max claimed, no body follows
	binary.LittleEndian.PutUint32(header[5:], crc32.Checksum(nil, castagnoli))
	buf := make([]byte, 0, 16)
	_, _, err := ReadFrame(bytes.NewReader(header), buf, 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v, want ErrFrameTooLarge", err)
	}
	// With the cap at default, the claimed length passes the bound check
	// but the body is missing — ErrTruncated, and the allocation is
	// bounded by the (valid) claimed length, which is the protocol's
	// documented maximum.
	_, _, err = ReadFrame(bytes.NewReader(header), buf, 0)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}
