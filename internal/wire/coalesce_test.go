package wire

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// burst concatenates frames so one write puts them all in the socket
// before the server reads any: every frame behind the first has already
// arrived when the server decodes it.
func burst(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

// edgeFrames cuts edges into batch frames of size records, at offsets
// from 0.
func edgeFrames(t *testing.T, edges []bipartite.Edge, size int) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(edges); off += size {
		frames = append(frames, batchFrame(t, int64(off), edges[off:min(off+size, len(edges))]))
	}
	return frames
}

var flushFrame = AppendFrame(nil, FrameFlush, nil)

// expectAck reads frames until an ack arrives and returns its watermark.
func (s *rawSession) expectAck() int64 {
	s.t.Helper()
	typ, body := s.readFrame()
	if typ != FrameAck {
		s.t.Fatalf("frame type %d, want ack", typ)
	}
	wm, err := DecodeAck(body)
	if err != nil {
		s.t.Fatalf("DecodeAck: %v", err)
	}
	return wm
}

// resumeRaw reconnects a named stream by hand, retrying while the server
// has not yet released it from the previous connection, and returns the
// session with the hello-ack's watermark.
func resumeRaw(t *testing.T, addr string, hello Hello) (*rawSession, int64) {
	t.Helper()
	body, err := AppendHello(nil, hello)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s := &rawSession{t: t, nc: nc}
		s.send(append([]byte(Magic), AppendFrame(nil, FrameHello, body)...))
		typ, reply := s.readFrame()
		switch typ {
		case FrameHelloAck:
			t.Cleanup(func() { nc.Close() })
			ack, err := DecodeHelloAck(reply)
			if err != nil {
				t.Fatal(err)
			}
			return s, ack.Watermark
		case FrameError:
			nc.Close()
			if werr, _ := DecodeError(reply); werr == nil || werr.Code != CodeStreamBusy || time.Now().After(deadline) {
				t.Fatalf("resume answered %v", werr)
			}
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("resume answered frame type %d", typ)
		}
	}
}

// TestBurstCoalescesIntoFewerIngests: frames written in one burst reach
// the engine in fewer Ingest calls than frames, and leave it in the state
// frame-by-frame ingest of the same frames reaches.
func TestBurstCoalescesIntoFewerIngests(t *testing.T) {
	cfg := baseConfig()
	cfg.EdgeBudget = 200 // small enough that the router drops above the bars
	env := newTestEnv(t, map[string]server.Config{"default": cfg}, Options{})
	eng, _ := env.multi.Get("default")
	edges := randomEdges(rand.New(rand.NewSource(21)), 6000, 64)
	frames := edgeFrames(t, edges, 100)

	s := newRawSession(t, env.addr, Hello{Namespace: "default"})
	s.send(burst(append(frames, flushFrame)...))
	if wm := s.expectAck(); wm != int64(len(edges)) {
		t.Fatalf("flush ack %d, want %d", wm, len(edges))
	}
	if got := eng.Counters().Batches; got >= int64(len(frames)) {
		t.Fatalf("%d frames reached the engine in %d Ingest calls; nothing coalesced", len(frames), got)
	}

	ref, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for off := 0; off < len(edges); off += 100 {
		if _, err := ref.Ingest(edges[off:min(off+100, len(edges))]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(refreshedState(t, eng), refreshedState(t, ref)) {
		t.Fatal("coalesced ingest left another state than frame-by-frame ingest")
	}
}

func refreshedState(t *testing.T, e *server.Engine) []byte {
	t.Helper()
	snap, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCoalescedDupTrimGap runs the exactly-once cases inside coalesced
// runs, for both batch frame types: a duplicate and an overlapping resend
// folded behind the frames they repeat, a gap behind a good frame (which
// is ingested before the reject), and a reconnect that resends frames
// overlapping the resumed watermark.
func TestCoalescedDupTrimGap(t *testing.T) {
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
			env := newTestEnv(t, map[string]server.Config{"default": tc.cfg}, Options{})
			eng, _ := env.multi.Get("default")
			edges := randomEdges(rand.New(rand.NewSource(22)), 60, 64)

			s := newRawSession(t, env.addr, tc.hello)
			// [0,10), its duplicate, the overlap [5,20), then [20,30).
			s.send(burst(tc.frame(t, 0, edges[:10]), tc.frame(t, 0, edges[:10]),
				tc.frame(t, 5, edges[5:20]), tc.frame(t, 20, edges[20:30]), flushFrame))
			if wm := s.expectAck(); wm != 30 {
				t.Fatalf("flush ack %d, want 30", wm)
			}
			if got := eng.IngestedEdges(); got != 30 {
				t.Fatalf("engine ingested %d records, want 30 (dedup or trim failed)", got)
			}
			if st := env.srv.Stats(); st.DupFrames != 1 || st.Edges != 30 {
				t.Fatalf("dup frames %d, records handed over %d; want 1 and 30", st.DupFrames, st.Edges)
			}

			// [30,40) is queued when the gap at 45 arrives: it is ingested
			// before the reject.
			s.send(burst(tc.frame(t, 30, edges[30:40]), tc.frame(t, 45, edges[45:50])))
			s.expectError(CodeGap)
			if got := eng.IngestedEdges(); got != 40 {
				t.Fatalf("engine ingested %d records after the gap, want 40", got)
			}

			// The reconnect resumes at 40 and resends from 20.
			s2, wm := resumeRaw(t, env.addr, tc.hello)
			if wm != 40 {
				t.Fatalf("resume watermark %d, want 40", wm)
			}
			s2.send(burst(tc.frame(t, 20, edges[20:35]), tc.frame(t, 35, edges[35:50]),
				tc.frame(t, 50, edges[50:60]), flushFrame))
			if wm := s2.expectAck(); wm != 60 {
				t.Fatalf("resumed flush ack %d, want 60", wm)
			}
			if got := eng.IngestedEdges(); got != 60 {
				t.Fatalf("engine ingested %d records after the resend, want 60", got)
			}
		})
	}
}

// TestMalformedFrameAfterBufferedFrames: the good frames buffered ahead of
// a corrupt one are ingested, the stream's watermark ends at them, and the
// client is told CodeBadFrame.
func TestMalformedFrameAfterBufferedFrames(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{})
	eng, _ := env.multi.Get("default")
	edges := randomEdges(rand.New(rand.NewSource(23)), 50, 64)
	hello := Hello{Namespace: "default", Stream: "torn"}

	const good = 4
	frames := edgeFrames(t, edges[:good*10], 10)
	bad := batchFrame(t, good*10, edges[good*10:])
	bad[len(bad)-1] ^= 0x01 // fails its CRC
	s := newRawSession(t, env.addr, hello)
	s.send(burst(append(frames, bad)...))
	s.expectError(CodeBadFrame)
	if got := eng.IngestedEdges(); got != good*10 {
		t.Fatalf("engine ingested %d edges, want the %d of the good frames", got, good*10)
	}
	if _, wm := resumeRaw(t, env.addr, hello); wm != good*10 {
		t.Fatalf("stream watermark %d, want %d", wm, good*10)
	}
}

// TestOutOfRangeSetInCoalescedRun: a set id out of range inside a
// coalesced run fails the engine call with CodeIngest, and the stream's
// watermark never exceeds what the engine ingested.
func TestOutOfRangeSetInCoalescedRun(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{})
	eng, _ := env.multi.Get("default")
	edges := randomEdges(rand.New(rand.NewSource(24)), 50, 64)
	edges[25].Set = 1 << 20 // in the third frame of five
	hello := Hello{Namespace: "default", Stream: "range"}

	s := newRawSession(t, env.addr, hello)
	s.send(burst(edgeFrames(t, edges, 10)...))
	s.expectError(CodeIngest)
	_, wm := resumeRaw(t, env.addr, hello)
	if got := eng.IngestedEdges(); wm > got || wm > 20 {
		t.Fatalf("stream watermark %d, engine ingested %d: want the watermark within both and before the bad frame", wm, got)
	}
	if got := env.srv.Stats().IngestErrors; got != 1 {
		t.Fatalf("ingest errors %d, want 1", got)
	}
}

// TestAcksKeepArrivingWhileCoalescing: with AckEvery 4 and no flush, the
// acks owed by a burst's frames arrive once the runs holding them are
// ingested, the last one at the burst's end.
func TestAcksKeepArrivingWhileCoalescing(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{AckEvery: 4})
	edges := randomEdges(rand.New(rand.NewSource(25)), 400, 64)
	s := newRawSession(t, env.addr, Hello{Namespace: "default"})
	s.send(burst(edgeFrames(t, edges, 10)...)) // 40 frames, no flush
	for last := int64(0); last != int64(len(edges)); {
		wm := s.expectAck()
		if wm <= last || wm%40 != 0 {
			t.Fatalf("ack %d after %d: want a growing watermark at a multiple of 4 frames", wm, last)
		}
		last = wm
	}
}

// TestPartialFrameDoesNotHoldBackRun: a run ends at the last whole frame
// the server holds. With AckEvery 4, four frames followed by half of a
// fifth are ingested and acked while the producer still owes the rest of
// the fifth.
func TestPartialFrameDoesNotHoldBackRun(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"default": baseConfig()}, Options{AckEvery: 4})
	eng, _ := env.multi.Get("default")
	edges := randomEdges(rand.New(rand.NewSource(27)), 50, 64)
	frames := edgeFrames(t, edges, 10)
	last := frames[len(frames)-1]
	half := len(last) / 2

	s := newRawSession(t, env.addr, Hello{Namespace: "default"})
	s.send(burst(append(frames[:len(frames)-1:len(frames)-1], last[:half])...))
	if wm := s.expectAck(); wm != 40 {
		t.Fatalf("ack %d with half a frame pending, want 40", wm)
	}
	if got := eng.IngestedEdges(); got != 40 {
		t.Fatalf("engine ingested %d edges with half a frame pending, want 40", got)
	}
	s.send(burst(last[half:], flushFrame))
	if wm := s.expectAck(); wm != int64(len(edges)) {
		t.Fatalf("flush ack %d, want %d", wm, len(edges))
	}
}

// TestInterleavedFramesCoalesce: on a dynamic namespace a burst
// alternating edge frames and op frames (deletes included) reaches the
// engine in fewer calls than frames — both frame types fold into one run
// of records — and leaves it in the state a reference fed the same frames
// one call each reaches, so the order of the inserts and deletes is kept.
func TestInterleavedFramesCoalesce(t *testing.T) {
	env := newTestEnv(t, map[string]server.Config{"dyn": dynConfig()}, Options{})
	eng, _ := env.multi.Get("dyn")
	ref, err := server.New(dynConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	edges := randomEdges(rand.New(rand.NewSource(26)), 200, 64)

	var frames [][]byte
	for off, i := 0, 0; off < len(edges); off, i = off+20, i+1 {
		chunk := edges[off : off+20]
		if i%4 < 2 { // two edge frames, then two op frames, and so on
			frames = append(frames, batchFrame(t, int64(off), chunk))
			if _, err := ref.Ingest(chunk); err != nil {
				t.Fatal(err)
			}
			continue
		}
		frames = append(frames, opBatchFrame(t, int64(off), chunk))
		ops := bipartite.Inserts(chunk)
		for j := 2; j < len(ops); j += 3 {
			ops[j] = bipartite.Op{Kind: bipartite.OpDelete, Edge: chunk[j-1]}
		}
		if _, err := ref.IngestOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	s := newRawSession(t, env.addr, Hello{Namespace: "dyn", Ops: true})
	s.send(burst(append(frames, flushFrame)...))
	if wm := s.expectAck(); wm != int64(len(edges)) {
		t.Fatalf("flush ack %d, want %d", wm, len(edges))
	}
	if got := eng.Counters().Batches; got >= int64(len(frames)) {
		t.Fatalf("%d frames reached the engine in %d calls; nothing coalesced", len(frames), got)
	}
	if got := eng.Counters().DeletedEdges; got != ref.Counters().DeletedEdges {
		t.Fatalf("deleted %d, reference %d", got, ref.Counters().DeletedEdges)
	}
	if !bytes.Equal(refreshedState(t, eng), refreshedState(t, ref)) {
		t.Fatal("the interleaved burst left another state than frame-by-frame ingest")
	}
}
