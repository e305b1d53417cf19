package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bipartite"
)

// segFile is a discovered on-disk segment.
type segFile struct {
	path string
	seq  uint64
}

// listSegments returns dir's segment files in sequence order.
func listSegments(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading log dir: %w", err)
	}
	var segs []segFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segExt) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segExt), 10, 64)
		if err != nil {
			continue // not a segment of ours
		}
		segs = append(segs, segFile{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// scanSegment reads one segment, calling fn for every intact frame in
// order, and returns the offset past the last intact frame (0 when the
// segment holds none). Per the torn-tail rule it stops cleanly — nil
// error — at the first frame that is short, oversized, fails its CRC,
// or decodes to an implausible record; only fn's errors and I/O errors
// other than EOF propagate. Both frame encodings arrive as records, an
// op frame's deletes with their bipartite.OpDeleteBit.
func scanSegment(path string, fn func(offset int64, recs []bipartite.Edge) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return 0, nil // shorter than the header: torn at creation
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("not a WAL segment (bad magic %q)", magic)
	}

	var (
		end    int64
		header [frameHeader]byte
		body   []byte
		recs   []bipartite.Edge
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return end, nil
			}
			return end, err
		}
		raw := binary.LittleEndian.Uint32(header[0:])
		length, opFrame := raw&^opFrameFlag, raw&opFrameFlag != 0
		if length < 8 || length%8 != 0 || length > maxFrameBody {
			return end, nil // implausible length: torn tail
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(f, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return end, nil
			}
			return end, err
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(header[4:]) {
			return end, nil
		}
		off, decoded, derr := decodeBody(body, opFrame, recs)
		if derr != nil {
			return end, nil // CRC-valid but not ours: treat as torn tail
		}
		recs = decoded
		if err := fn(off, recs); err != nil {
			return end, err
		}
		end = off + int64(len(recs))
	}
}

// ErrCorruptRecord marks a frame body that passed its length and CRC
// gates but still decodes to something our writer never emits. Every
// decodeBody failure wraps it — the contract the fuzz target pins.
var ErrCorruptRecord = fmt.Errorf("wal: corrupt record")

// decodeBody decodes one CRC-validated frame body — u64 offset followed
// by 8-byte records — into dst (reusing its capacity). In an op frame
// (opFrame) a record's set word may carry bipartite.OpDeleteBit; in a v1
// body that bit is corruption (our writer validates set ids far below
// it), never a huge set id. Allocation is bounded by len(body), which
// callers cap at maxFrameBody.
func decodeBody(body []byte, opFrame bool, dst []bipartite.Edge) (int64, []bipartite.Edge, error) {
	if len(body) < 8 || len(body)%8 != 0 {
		return 0, dst, fmt.Errorf("%w: implausible body length %d", ErrCorruptRecord, len(body))
	}
	off := int64(binary.LittleEndian.Uint64(body))
	if off < 0 {
		return 0, dst, fmt.Errorf("%w: negative frame offset", ErrCorruptRecord)
	}
	if n := (len(body) - 8) / 8; cap(dst) < n {
		dst = make([]bipartite.Edge, 0, n)
	}
	dst = dst[:0]
	for recs := body[8:]; len(recs) >= 8; recs = recs[8:] {
		w := binary.LittleEndian.Uint64(recs)
		set := uint32(w)
		if set&bipartite.OpDeleteBit != 0 && !opFrame {
			return 0, dst[:0], fmt.Errorf("%w: delete flag in a v1 edge frame", ErrCorruptRecord)
		}
		dst = append(dst, bipartite.Edge{Set: set, Elem: uint32(w >> 32)})
	}
	return off, dst, nil
}
