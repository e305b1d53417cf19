package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bipartite"
)

// Conn is a client-side wire ingest connection: it streams batch
// frames at monotonically increasing stream offsets and tracks the
// server's acknowledged watermark from a background reader, so sends
// never wait for a round trip (pipelining) while Flush can still await
// durability of everything sent. Conn is safe for one sender goroutine;
// concurrent Send calls are serialized internally.
type Conn struct {
	nc net.Conn

	// wmu guards the writer and the send offset.
	wmu    sync.Mutex
	bw     *bufio.Writer
	offset int64  // next stream offset to send
	body   []byte // reusable batch-body buffer
	frame  []byte // reusable framed-output buffer

	// mu/cond guard the reader-published state.
	mu       sync.Mutex
	cond     *sync.Cond
	acked    int64
	readErr  error
	readDone chan struct{}

	hello HelloAck
}

// Dial connects to a wire listener, performs the handshake and returns
// a ready Conn. The hello's namespace must exist on the server; a
// protocol reject surfaces as *WireError.
func Dial(addr string, hello Hello) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewConn(nc, hello)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewConn performs the wire handshake over an existing connection
// (in-process pipes in tests, custom dialers) and returns a ready Conn.
// On error the caller still owns (and should close) nc.
func NewConn(nc net.Conn, hello Hello) (*Conn, error) {
	c := &Conn{
		nc:       nc,
		bw:       bufio.NewWriterSize(nc, 1<<16),
		readDone: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)

	helloBody, err := AppendHello(nil, hello)
	if err != nil {
		return nil, err
	}
	if _, err := c.bw.WriteString(Magic); err != nil {
		return nil, err
	}
	if _, err := c.bw.Write(AppendFrame(nil, FrameHello, helloBody)); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	// The handshake is synchronous: the server's first frame is either
	// the hello-ack or a typed reject.
	br := bufio.NewReaderSize(nc, 1<<12)
	typ, body, err := ReadFrame(br, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("wire: reading hello-ack: %w", err)
	}
	switch typ {
	case FrameHelloAck:
		ack, err := DecodeHelloAck(body)
		if err != nil {
			return nil, err
		}
		c.hello = ack
		c.offset = ack.Watermark
		c.acked = ack.Watermark
	case FrameError:
		werr, err := DecodeError(body)
		if err != nil {
			return nil, err
		}
		return nil, werr
	default:
		return nil, fmt.Errorf("%w: handshake answered with frame type %d", ErrBadFrame, typ)
	}
	go c.readLoop(br)
	return c, nil
}

// readLoop drains server frames (acks, or a terminal error) and
// publishes them; it exits when the connection closes.
func (c *Conn) readLoop(br *bufio.Reader) {
	defer close(c.readDone)
	var buf []byte
	for {
		typ, body, err := ReadFrame(br, buf, 0)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // server never says EOF first on a healthy session
			}
			c.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		buf = body[:0]
		switch typ {
		case FrameAck:
			wm, err := DecodeAck(body)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if wm > c.acked {
				c.acked = wm
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		case FrameError:
			werr, derr := DecodeError(body)
			if derr != nil {
				c.fail(derr)
			} else {
				c.fail(werr)
			}
			return
		default:
			c.fail(fmt.Errorf("%w: server sent frame type %d", ErrBadFrame, typ))
			return
		}
	}
}

func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Err returns the terminal connection error, if any (a *WireError for
// server rejects).
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Handshake returns the server's hello-ack: the resume watermark, the
// namespace's engine mode and weight signature.
func (c *Conn) Handshake() HelloAck { return c.hello }

// Offset returns the next stream offset Send will use — the total
// number of edges sent (or resumed past) so far.
func (c *Conn) Offset() int64 {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.offset
}

// Watermark returns the server's last acknowledged edge watermark.
func (c *Conn) Watermark() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// Send frames one edge batch at the current stream offset and writes it
// (one syscall, no round trip — acks arrive asynchronously). The
// caller's slice is copied into the frame before Send returns.
func (c *Conn) Send(edges []bipartite.Edge) error {
	return send(c, FrameBatch, edges, AppendBatch)
}

// SendOps frames one operation batch (inserts and deletes) at the
// current stream offset — the op-plane Send. The session's hello must
// have set Ops (the server rejects unannounced op frames), and offsets
// advance by the op count, so Flush and reconnect-resume semantics are
// identical to the edge plane's.
func (c *Conn) SendOps(ops []bipartite.Op) error {
	return send(c, FrameOpBatch, ops, AppendOpBatch)
}

// send is the one client send path: encode recs at the current offset
// with the frame type's body codec, write the frame, advance the offset
// by the record count.
func send[R any](c *Conn, typ byte, recs []R, enc func([]byte, int64, []R) ([]byte, error)) error {
	if len(recs) == 0 {
		return nil
	}
	if err := c.Err(); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	body, err := enc(c.body[:0], c.offset, recs)
	if err != nil {
		return err
	}
	c.body = body
	if err := c.writeFrameLocked(typ, body); err != nil {
		return err
	}
	c.offset += int64(len(recs))
	return nil
}

// writeFrameLocked frames body and writes it out (one syscall). A
// failure surfaces as the reader's terminal error (a typed server
// reject) when there is one, rather than the raw write failure it
// usually causes. Caller holds wmu.
func (c *Conn) writeFrameLocked(typ byte, body []byte) error {
	c.frame = AppendFrame(c.frame[:0], typ, body)
	_, err := c.bw.Write(c.frame)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		if rerr := c.Err(); rerr != nil {
			return rerr
		}
	}
	return err
}

// Flush asks the server for an immediate ack and blocks until the
// acknowledged watermark covers everything sent so far (or the
// connection fails). On return every previously sent edge is in the
// engine — and in the WAL on a durable engine.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	target := c.offset
	err := c.writeFrameLocked(FrameFlush, nil)
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.acked < target && c.readErr == nil {
		c.cond.Wait()
	}
	return c.readErr
}

// Close flushes (awaiting the final ack) and closes the connection.
func (c *Conn) Close() error {
	err := c.Flush()
	c.nc.Close()
	<-c.readDone
	return err
}

// Abort drops the connection without flushing — unacked frames may or
// may not have reached the engine; a reconnect with the same stream id
// resumes exactly from the server's watermark.
func (c *Conn) Abort() error {
	err := c.nc.Close()
	<-c.readDone
	return err
}
