package streamcover

import (
	"io"

	"repro/internal/stream"
)

// TextEdgeStream streams edges lazily from a text edge list (the covgen
// format: optional "c n m" header, then "set elem" lines) without
// materializing the instance — true edge-arrival processing of files of
// any size in O~(n) memory.
type TextEdgeStream struct {
	ts      *stream.TextStream
	pending Edge
	hasPend bool
	primed  bool
}

// NewTextEdgeStream wraps r. If r is an io.ReadSeeker, Reset is
// available (CanReset reports it), enabling the multi-pass SetCover
// directly on a file.
func NewTextEdgeStream(r io.Reader) *TextEdgeStream {
	return &TextEdgeStream{ts: stream.NewTextStream(r)}
}

// prime reads ahead one edge so the header (which precedes all edges in
// the format) is parsed and available.
func (t *TextEdgeStream) prime() {
	if t.primed {
		return
	}
	t.primed = true
	t.pending, t.hasPend = t.ts.Next()
}

// Header returns the dimensions declared by the file's "c n m" line;
// ok is false when the file has none.
func (t *TextEdgeStream) Header() (numSets, numElems int, ok bool) {
	t.prime()
	return t.ts.NumSets, t.ts.NumElems, t.ts.NumSets > 0 || t.ts.NumElems > 0
}

// Next implements Stream.
func (t *TextEdgeStream) Next() (Edge, bool) {
	t.prime()
	if t.hasPend {
		t.hasPend = false
		return t.pending, true
	}
	return t.ts.Next()
}

// Err returns the first parse or I/O error, if any.
func (t *TextEdgeStream) Err() error { return t.ts.Err() }

// CanReset reports whether the underlying reader supports replay.
func (t *TextEdgeStream) CanReset() bool { return t.ts.CanReset() }

// Reset rewinds to the beginning; it panics if CanReset is false.
func (t *TextEdgeStream) Reset() {
	t.ts.Reset()
	t.primed = false
	t.hasPend = false
}
