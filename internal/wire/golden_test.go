package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bipartite"
)

// goldenEdges are the records of testdata/golden_edge_batch.bin and
// testdata/golden_op_batch_inserts.bin, both at offset 5.
var goldenEdges = []bipartite.Edge{{Set: 1, Elem: 2}, {Set: 3, Elem: 4}, {Set: 1<<31 - 1, Elem: 1<<32 - 1}}

// goldenDeleteOps are the records of testdata/golden_op_batch_delete.bin,
// at offset 8.
var goldenDeleteOps = []bipartite.Op{
	{Kind: bipartite.OpInsert, Edge: bipartite.Edge{Set: 7, Elem: 8}},
	{Kind: bipartite.OpDelete, Edge: bipartite.Edge{Set: 1, Elem: 2}},
	{Kind: bipartite.OpDelete, Edge: bipartite.Edge{Set: 1<<31 - 1, Elem: 1<<32 - 1}},
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenBatchBodies pins the batch frame bodies against bytes checked
// in from an earlier writer: an edge batch, an insert-only op batch (the
// same bytes: delete-free streams keep the edge encoding) and an op batch
// with deletes decode to the records they were written from, and the
// writers reproduce them byte for byte.
func TestGoldenBatchBodies(t *testing.T) {
	edgeBody := readGolden(t, "golden_edge_batch.bin")
	var edges []bipartite.Edge
	if off, err := DecodeBatch(edgeBody, &edges); err != nil || off != 5 || !reflect.DeepEqual(edges, goldenEdges) {
		t.Fatalf("DecodeBatch = %v at %d (err %v), want %v at 5", edges, off, err, goldenEdges)
	}
	if b, err := AppendBatch(nil, 5, goldenEdges); err != nil || !bytes.Equal(b, edgeBody) {
		t.Fatalf("AppendBatch wrote %x (err %v), want %x", b, err, edgeBody)
	}

	for _, tc := range []struct {
		file string
		off  int64
		ops  []bipartite.Op
	}{
		{"golden_op_batch_inserts.bin", 5, bipartite.Inserts(goldenEdges)},
		{"golden_op_batch_delete.bin", 8, goldenDeleteOps},
	} {
		body := readGolden(t, tc.file)
		var ops []bipartite.Op
		if off, err := DecodeOpBatch(body, &ops); err != nil || off != tc.off || !reflect.DeepEqual(ops, tc.ops) {
			t.Fatalf("%s: DecodeOpBatch = %v at %d (err %v), want %v at %d", tc.file, ops, off, err, tc.ops, tc.off)
		}
		if b, err := AppendOpBatch(nil, tc.off, tc.ops); err != nil || !bytes.Equal(b, body) {
			t.Fatalf("%s: AppendOpBatch wrote %x (err %v), want %x", tc.file, b, err, body)
		}
	}
	if inserts := readGolden(t, "golden_op_batch_inserts.bin"); !bytes.Equal(inserts, edgeBody) {
		t.Fatal("the insert-only op batch is not the edge batch's bytes")
	}
}
