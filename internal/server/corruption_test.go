package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/weighted"
)

// This file pins the failure mode of every persistence input: a
// truncated or bit-flipped v2 container, v1-format state blob, or WAL
// segment must surface as a clear error (or, for a WAL's torn tail, a
// clean prefix recovery) — never a panic and never silently wrong
// state — across all three engine modes.

// buildContainer returns v2 container bytes holding one namespace per
// engine mode, each with a little ingested data.
func buildContainer(t *testing.T) []byte {
	t.Helper()
	m := NewMulti("")
	defer m.Close()
	for _, mode := range durModes {
		cfg := durConfig(mode)
		e, err := m.Create("ns-"+string(mode), cfg)
		if err != nil {
			t.Fatalf("Create(%s): %v", mode, err)
		}
		for _, b := range durBatches(cfg.NumSets, cfg.NumElems, 3, 5) {
			if _, err := e.Ingest(b); err != nil {
				t.Fatalf("Ingest(%s): %v", mode, err)
			}
		}
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// restoreContainer attempts a RestoreAll of data into a fresh Multi,
// converting any panic into a test failure.
func restoreContainer(t *testing.T, data []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("RestoreAll panicked: %v", r)
		}
	}()
	m := NewMulti("")
	defer m.Close()
	_, err = m.RestoreAll(bytes.NewReader(data))
	return err
}

func TestCorruptContainerTruncated(t *testing.T) {
	data := buildContainer(t)
	if err := restoreContainer(t, data); err != nil {
		t.Fatalf("pristine container failed to restore: %v", err)
	}
	// Every strict prefix must fail with an error: container parsing is
	// length-framed, so any truncation starves a read.
	cuts := []int{0, 1, len(MultiSnapshotMagic), len(MultiSnapshotMagic) + 2}
	for frac := 1; frac < 10; frac++ {
		cuts = append(cuts, len(data)*frac/10)
	}
	cuts = append(cuts, len(data)-1)
	for _, cut := range cuts {
		if cut >= len(data) {
			continue
		}
		if err := restoreContainer(t, data[:cut]); err == nil {
			t.Errorf("container truncated to %d/%d bytes restored without error", cut, len(data))
		}
	}
}

func TestCorruptContainerBitFlips(t *testing.T) {
	data := buildContainer(t)
	// Flip one bit at a spread of positions. A flip must either fail
	// loudly or — only when it lands in a state blob's numeric payload
	// without breaking framing or decode invariants — restore different
	// but well-formed state. It must never panic; restoreContainer
	// converts panics to failures.
	for pos := 0; pos < len(data); pos += 41 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		restoreContainer(t, mut)
	}
	// Flips in the header/count region specifically must error.
	for pos := 0; pos < len(MultiSnapshotMagic); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := restoreContainer(t, mut); err == nil {
			t.Errorf("magic flipped at %d restored without error", pos)
		}
	}
}

// TestCorruptV1BlobPerMode feeds each mode's raw state blob, truncated
// and bit-flipped, to ReadRestore.
func TestCorruptV1BlobPerMode(t *testing.T) {
	for _, mode := range durModes {
		t.Run(string(mode), func(t *testing.T) {
			cfg := durConfig(mode)
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, b := range durBatches(cfg.NumSets, cfg.NumElems, 3, 5) {
				if _, err := e.Ingest(b); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
			var buf bytes.Buffer
			if _, err := e.WriteSnapshot(&buf); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			e.Close()
			blob := buf.Bytes()

			read := func(data []byte) (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("ReadRestore panicked: %v", r)
					}
				}()
				_, err = ReadRestore(cfg, bytes.NewReader(data))
				return err
			}
			if err := read(blob); err != nil {
				t.Fatalf("pristine blob failed: %v", err)
			}
			for _, cut := range []int{0, 1, 4, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
				if cut >= len(blob) {
					continue
				}
				if err := read(blob[:cut]); err == nil {
					t.Errorf("blob truncated to %d/%d bytes decoded without error", cut, len(blob))
				}
			}
			for pos := 0; pos < len(blob); pos += 23 {
				mut := append([]byte(nil), blob...)
				mut[pos] ^= 0x20
				read(mut) // decode error or different state; never a panic
			}
			// A counter no writer produces is refused: restored, it would
			// publish a snapshot whose edge total never meets the engine's.
			for name, mut := range impossibleTotals(mode, blob) {
				if err := read(mut); err == nil {
					t.Errorf("blob with %s decoded without error", name)
				}
			}
		})
	}
}

// impossibleTotals returns copies of a pristine state blob, each with one
// consumed-edge (or op, or delete) counter overwritten by a value no
// shard cut, merge or restore writes. The dynamic header's checksum is
// recomputed, so it is the counter that must refuse the blob.
func impossibleTotals(mode ModeName, blob []byte) map[string][]byte {
	le := binary.LittleEndian
	put := func(at int, v uint64) []byte {
		mut := bytes.Clone(blob)
		le.PutUint64(mut[at:], v)
		if mode == ModeDynamic {
			hdr := mut[len(dynMagic):]
			le.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], dynCRCTable))
		}
		return mut
	}
	const (
		minusOne   = ^uint64(0)
		sketchSeen = len(core.SketchMagic) + 9*8 + 2 + 8 + 4 // a v1 sketch blob's consumed-edge word
		bankSeen   = len(weighted.BankMagic)
		firstClass = bankSeen + 8 + 4 + 4 + 8 // past the bank header and one frame header
	)
	switch mode {
	case ModeSketch:
		return map[string][]byte{"a negative edge total": put(sketchSeen, minusOne)}
	case ModeWeighted:
		return map[string][]byte{
			"a negative bank edge total":  put(bankSeen, minusOne),
			"a negative class edge total": put(firstClass+sketchSeen, minusOne),
		}
	default:
		ops := le.Uint64(blob[len(dynMagic):])
		return map[string][]byte{
			"a negative op total":     put(len(dynMagic), minusOne),
			"a negative delete total": put(len(dynMagic)+8, minusOne),
			"more deletes than ops":   put(len(dynMagic)+8, ops+1),
		}
	}
}

// TestCorruptWALPerMode starts a durable engine over damaged WAL
// segments: a flipped frame in the only segment is a torn tail (clean
// prefix recovery), while a flipped or missing middle segment with
// acknowledged successors is a gap and must be a clear error — for all
// three modes.
func TestCorruptWALPerMode(t *testing.T) {
	for _, mode := range durModes {
		t.Run(string(mode), func(t *testing.T) {
			cfg := durConfig(mode)
			batches := durBatches(cfg.NumSets, cfg.NumElems, 4, 5)
			newDurable := func(dir string) (*Engine, error) {
				c := cfg
				// Tiny segments: every batch seals its own file, so damage
				// can land in acknowledged history.
				c.WAL = &WALConfig{Dir: dir, Fsync: "off", SegmentBytes: 1}
				var e *Engine
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("New over damaged WAL panicked: %v", r)
						}
					}()
					e, err = New(c)
				}()
				return e, err
			}
			seed := func(t *testing.T) string {
				dir := t.TempDir()
				e, err := newDurable(dir)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				for _, b := range batches {
					if _, err := e.Ingest(b); err != nil {
						t.Fatalf("Ingest: %v", err)
					}
				}
				e.Close()
				return dir
			}
			segments := func(dir string) []string {
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatalf("ReadDir: %v", err)
				}
				var segs []string
				for _, en := range ents {
					if filepath.Ext(en.Name()) == ".wal" {
						segs = append(segs, filepath.Join(dir, en.Name()))
					}
				}
				return segs
			}

			t.Run("flip-middle-segment", func(t *testing.T) {
				dir := seed(t)
				segs := segments(dir)
				if len(segs) < 3 {
					t.Fatalf("want ≥3 segments, got %d", len(segs))
				}
				data, err := os.ReadFile(segs[1])
				if err != nil {
					t.Fatalf("ReadFile: %v", err)
				}
				data[len(data)/2] ^= 0x08
				if err := os.WriteFile(segs[1], data, 0o666); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
				if e, err := newDurable(dir); err == nil {
					e.Close()
					t.Fatalf("flipped middle segment recovered without error")
				}
			})

			t.Run("missing-middle-segment", func(t *testing.T) {
				dir := seed(t)
				segs := segments(dir)
				if err := os.Remove(segs[1]); err != nil {
					t.Fatalf("Remove: %v", err)
				}
				if e, err := newDurable(dir); err == nil {
					e.Close()
					t.Fatalf("missing middle segment recovered without error")
				}
			})

			t.Run("torn-final-segment", func(t *testing.T) {
				dir := seed(t)
				segs := segments(dir)
				last := segs[len(segs)-1] // the write frontier: tearing it is benign
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatalf("Stat: %v", err)
				}
				if err := os.Truncate(last, fi.Size()-3); err != nil {
					t.Fatalf("Truncate: %v", err)
				}
				e, err := newDurable(dir)
				if err != nil {
					t.Fatalf("torn tail must recover the clean prefix, got error: %v", err)
				}
				want := int64((len(batches) - 1) * 5)
				if got := e.IngestedEdges(); got != want {
					t.Fatalf("recovered %d edges after torn tail, want %d", got, want)
				}
				e.Close()
			})
		})
	}
}

// TestWALReplayRejectsOutOfRangeSets pins the replay-side validation: a
// WAL written under a larger NumSets (or corrupted into one) must be
// rejected with a clear error when replayed into a smaller config.
func TestWALReplayRejectsOutOfRangeSets(t *testing.T) {
	cfg := durConfig(ModeSketch)
	dir := t.TempDir()
	cfg.WAL = &WALConfig{Dir: dir, Fsync: "off"}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Ingest(durBatches(cfg.NumSets, cfg.NumElems, 1, 5)[0]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	e.Close()
	small := cfg
	small.NumSets = 2
	if e, err := New(small); err == nil {
		e.Close()
		t.Fatalf("replay with out-of-range set ids succeeded")
	} else if want := "out of range"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}
