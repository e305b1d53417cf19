package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bipartite"
)

// goldenRecords are the two frames of testdata/golden_edges_then_ops.wal:
// a v1 edge frame, then an op frame holding a delete.
var goldenRecords = [][]bipartite.Edge{
	{{Set: 1, Elem: 2}, {Set: 3, Elem: 4}, {Set: 5, Elem: 6}},
	{{Set: 7, Elem: 8}, {Set: 1 | bipartite.OpDeleteBit, Elem: 2}, {Set: 9, Elem: 1<<32 - 1}},
}

// TestGoldenSegment pins the on-disk format against bytes checked in
// from an earlier writer: Open replays the segment to the records it
// logged (the delete with its bit, the edge frame as plain edges),
// OpenOps to the same ops, and Append and AppendOps both write the
// segment again byte for byte.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_edges_then_ops.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segExt)), golden, 0o666); err != nil {
		t.Fatal(err)
	}
	var (
		got  [][]bipartite.Edge
		ops  [][]bipartite.Op
		offs []int64
	)
	l, err := Open(Options{Dir: dir, Policy: SyncOff}, 0, func(off int64, recs []bipartite.Edge) error {
		offs = append(offs, off)
		got = append(got, slices.Clone(recs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !reflect.DeepEqual(got, goldenRecords) || !reflect.DeepEqual(offs, []int64{0, 3}) {
		t.Fatalf("replayed %v at offsets %v, want %v at [0 3]", got, offs, goldenRecords)
	}
	// A second replay of the same dir (its own empty segment is behind).
	l, err = OpenOps(Options{Dir: dir, Policy: SyncOff}, 0, func(_ int64, batch []bipartite.Op) error {
		ops = append(ops, slices.Clone(batch))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	wantOps := [][]bipartite.Op{bipartite.Inserts(goldenRecords[0]), {
		{Kind: bipartite.OpInsert, Edge: bipartite.Edge{Set: 7, Elem: 8}},
		{Kind: bipartite.OpDelete, Edge: bipartite.Edge{Set: 1, Elem: 2}},
		{Kind: bipartite.OpInsert, Edge: bipartite.Edge{Set: 9, Elem: 1<<32 - 1}},
	}}
	if !reflect.DeepEqual(ops, wantOps) {
		t.Fatalf("OpenOps replayed %v, want %v", ops, wantOps)
	}

	for name, write := range map[string]func(*Log) error{
		"Append": func(l *Log) error {
			for _, recs := range goldenRecords {
				if _, err := l.Append(recs); err != nil {
					return err
				}
			}
			return nil
		},
		"AppendOps": func(l *Log) error {
			for _, batch := range wantOps {
				if _, err := l.AppendOps(batch); err != nil {
					return err
				}
			}
			return nil
		},
	} {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Policy: SyncOff}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(l); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if seg := readSegments(t, dir); !bytes.Equal(seg, golden) {
			t.Fatalf("%s wrote\n%x\nwant the golden\n%x", name, seg, golden)
		}
	}
}
