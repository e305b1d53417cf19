package bipartite

import "testing"

// TestOpRecordRoundTrip pins the one serialized op record the WAL and
// the wire share: the kind rides the set word's top bit and nothing
// else changes.
func TestOpRecordRoundTrip(t *testing.T) {
	if OpDeleteBit != 1<<31 {
		t.Fatalf("OpDeleteBit = %#x, want the set word's top bit", OpDeleteBit)
	}
	for _, op := range []Op{
		{Kind: OpInsert, Edge: Edge{Set: 0, Elem: 0}},
		{Kind: OpInsert, Edge: Edge{Set: 1<<31 - 1, Elem: 1<<32 - 1}},
		{Kind: OpDelete, Edge: Edge{Set: 0, Elem: 7}},
		{Kind: OpDelete, Edge: Edge{Set: 1<<31 - 1, Elem: 1<<32 - 1}},
	} {
		set := PackOp(op)
		if want := op.Edge.Set | uint32(op.Kind)<<31; set != want {
			t.Fatalf("PackOp(%v) = %#x, want %#x", op, set, want)
		}
		if got := UnpackOp(set, op.Edge.Elem); got != op {
			t.Fatalf("UnpackOp(PackOp(%v)) = %v", op, got)
		}
	}
}

// TestRecord: an op's ingest record is its edge with the packed set word,
// and IsDelete reads the kind back off it.
func TestRecord(t *testing.T) {
	for _, op := range []Op{
		{Kind: OpInsert, Edge: Edge{Set: 1<<31 - 1, Elem: 9}},
		{Kind: OpDelete, Edge: Edge{Set: 3, Elem: 1<<32 - 1}},
	} {
		r := Record(op)
		if r != (Edge{Set: PackOp(op), Elem: op.Edge.Elem}) || IsDelete(r) != (op.Kind == OpDelete) {
			t.Fatalf("Record(%v) = %v (delete %v)", op, r, IsDelete(r))
		}
		if got := UnpackOp(r.Set, r.Elem); got != op {
			t.Fatalf("UnpackOp(Record(%v)) = %v", op, got)
		}
	}
}
