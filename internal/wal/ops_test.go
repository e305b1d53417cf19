package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bipartite"
)

func opBatch(start, n, deleteEvery int) []bipartite.Op {
	ops := make([]bipartite.Op, n)
	for i := range ops {
		kind := bipartite.OpInsert
		if deleteEvery > 0 && i%deleteEvery == 0 {
			kind = bipartite.OpDelete
		}
		ops[i] = bipartite.Op{Kind: kind, Edge: bipartite.Edge{Set: uint32(start + i), Elem: uint32(3*start + i)}}
	}
	return ops
}

func readSegments(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestAppendOpsInsertOnlyByteIdentical: an insert-only batch through
// AppendOps produces exactly the bytes Append produces — the property
// that keeps pre-op-plane logs and insert-only logs interchangeable
// (and pre-extension readers working against new writers).
func TestAppendOpsInsertOnlyByteIdentical(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	la, err := Open(Options{Dir: dirA, Policy: SyncOff}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := OpenOps(Options{Dir: dirB, Policy: SyncOff}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		edges := edgeBatch(i*7, 4+i)
		if _, err := la.Append(edges); err != nil {
			t.Fatal(err)
		}
		if _, err := lb.AppendOps(bipartite.Inserts(edges)); err != nil {
			t.Fatal(err)
		}
	}
	la.Close()
	lb.Close()
	if !bytes.Equal(readSegments(t, dirA), readSegments(t, dirB)) {
		t.Fatal("insert-only AppendOps segment differs from Append's")
	}
}

// TestAppendOpsReplayRoundTrip: op frames with interleaved deletes
// replay exactly, with op-counted offsets.
func TestAppendOpsReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: SyncOff}
	l, err := OpenOps(opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]bipartite.Op
	next := int64(0)
	for i := 0; i < 6; i++ {
		b := opBatch(i*10, 3+i, 2+i%2)
		off, err := l.AppendOps(b)
		if err != nil {
			t.Fatal(err)
		}
		if off != next {
			t.Fatalf("AppendOps offset = %d, want %d", off, next)
		}
		next += int64(len(b))
		want = append(want, b)
	}
	l.Close()

	var offs []int64
	var frames [][]bipartite.Op
	l2, err := OpenOps(opts, 0, func(off int64, ops []bipartite.Op) error {
		offs = append(offs, off)
		frames = append(frames, append([]bipartite.Op(nil), ops...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(frames, want) {
		t.Fatalf("replayed op frames differ:\n got %v\nwant %v", frames, want)
	}
	run := int64(0)
	for i, off := range offs {
		if off != run {
			t.Fatalf("frame %d offset = %d, want %d", i, off, run)
		}
		run += int64(len(frames[i]))
	}
	if got := l2.NextOffset(); got != next {
		t.Fatalf("recovered NextOffset = %d, want %d", got, next)
	}
}

// TestOpFrameMixedWithEdgeFrames: edge frames and op frames interleave
// freely in one log; OpenOps replays both (edge frames surface as
// insert ops).
func TestOpFrameMixedWithEdgeFrames(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: SyncOff}
	l, err := OpenOps(opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeBatch(0, 3)
	if _, err := l.Append(edges); err != nil {
		t.Fatal(err)
	}
	dels := opBatch(5, 2, 1) // all deletes
	if _, err := l.AppendOps(dels); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var frames [][]bipartite.Op
	l2, err := OpenOps(opts, 0, func(off int64, ops []bipartite.Op) error {
		frames = append(frames, append([]bipartite.Op(nil), ops...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := [][]bipartite.Op{bipartite.Inserts(edges), dels}
	if !reflect.DeepEqual(frames, want) {
		t.Fatalf("replayed frames differ:\n got %v\nwant %v", frames, want)
	}
}

// TestOpFrameFlagBeyondLegacyBound: the op-frame flag bit must lie
// outside the legacy reader's accepted length range, so a pre-extension
// binary hitting the first op frame stops at a clean torn tail instead
// of misreading deletes as inserts.
func TestOpFrameFlagBeyondLegacyBound(t *testing.T) {
	if opFrameFlag <= maxFrameBody {
		t.Fatalf("opFrameFlag %#x within legacy frame bound %#x: old readers would decode op frames", opFrameFlag, maxFrameBody)
	}
	if bipartite.OpDeleteBit <= uint32(0x7fffffff)>>1 {
		t.Fatalf("OpDeleteBit %#x must be the set word's top bit", bipartite.OpDeleteBit)
	}
}
