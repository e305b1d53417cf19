package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bipartite"
)

// FuzzWALRecord feeds arbitrary bytes to the frame-body decoder under
// both frame interpretations: no input may panic, over-allocate past
// the body-derived record count, or fail with anything but an error
// wrapping ErrCorruptRecord. Successful decodes must re-encode to the
// exact input bytes (the encoder and decoder are inverses — the
// property crash recovery's bit-identity rests on).
func FuzzWALRecord(f *testing.F) {
	// Well-formed seeds: a v1 edge body and an op body with a delete.
	l := &Log{}
	v1 := append([]byte(nil), l.encodeFrameLocked(7, []bipartite.Edge{{Set: 1, Elem: 2}, {Set: 3, Elem: 4}})...)
	f.Add(v1[frameHeader:], false)
	opf := append([]byte(nil), l.encodeFrameLocked(9, []bipartite.Edge{
		{Set: 1, Elem: 2}, {Set: 1 | bipartite.OpDeleteBit, Elem: 2},
	})...)
	f.Add(opf[frameHeader:], true)
	// Structurally hostile ones: short, misaligned, delete flag in a v1
	// body, negative offset.
	f.Add([]byte{}, false)
	f.Add([]byte{1, 2, 3}, true)
	f.Add(bytes.Repeat([]byte{0}, 12), false)
	f.Add(append(bytes.Repeat([]byte{0}, 8), 0, 0, 0, 0x80, 0, 0, 0, 0), false)
	f.Add(append(bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{0}, 8)...), true)

	f.Fuzz(func(t *testing.T, body []byte, opFrame bool) {
		if len(body) > maxFrameBody {
			body = body[:maxFrameBody]
		}
		off, recs, err := decodeBody(body, opFrame, nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if off < 0 {
			t.Fatalf("accepted negative offset %d", off)
		}
		if want := (len(body) - 8) / 8; len(recs) != want {
			t.Fatalf("decoded %d records from a %d-byte body, want %d", len(recs), len(body), want)
		}
		if cap(recs) > len(body)/8+1 {
			t.Fatalf("record buffer grew to %d entries for a %d-byte body", cap(recs), len(body))
		}
		// Inverse check: re-encoding the decode must reproduce the input
		// body bit for bit, and flag an op frame exactly when a record
		// carries a delete — which a v1 body never decodes to.
		frame := (&Log{}).encodeFrameLocked(off, recs)
		if !bytes.Equal(frame[frameHeader:], body) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", frame[frameHeader:], body)
		}
		flagged := binary.LittleEndian.Uint32(frame)&opFrameFlag != 0
		if flagged != slices.ContainsFunc(recs, bipartite.IsDelete) || flagged && !opFrame {
			t.Fatalf("re-encoded op flag %v for records %v decoded from an op frame %v", flagged, recs, opFrame)
		}
	})
}

// FuzzWALSegment writes arbitrary bytes after a valid segment magic and
// scans them: the torn-tail rule means a scan may stop early but must
// never panic, report records a CRC-valid frame does not hold, or
// return an error for anything except the replay callback's own.
func FuzzWALSegment(f *testing.F) {
	l := &Log{}
	valid := []byte(segMagic)
	valid = append(valid, l.encodeFrameLocked(0, []bipartite.Edge{{Set: 1, Elem: 2}})...)
	valid = append(valid, l.encodeFrameLocked(1, []bipartite.Edge{{Set: 1 | bipartite.OpDeleteBit, Elem: 2}})...)
	f.Add(valid)
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)-3])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(segMagic)+10] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg.wal")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		last := int64(-1)
		end, err := scanSegment(path, func(off int64, recs []bipartite.Edge) error {
			if off < 0 {
				t.Fatalf("negative frame offset %d", off)
			}
			last = off + int64(len(recs))
			return nil
		})
		if err != nil {
			// The only reachable error with a nil-friendly callback is the
			// bad-magic reject; a short or torn file must scan cleanly.
			if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
				t.Fatalf("scan error on a well-opened segment: %v", err)
			}
			return
		}
		if last >= 0 && end != last {
			t.Fatalf("segment end %d != last frame end %d", end, last)
		}
	})
}
