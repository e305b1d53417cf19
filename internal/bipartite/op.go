package bipartite

// OpKind distinguishes the two mutations an operation stream can carry.
type OpKind uint8

const (
	// OpInsert adds one (set, elem) incidence to the stream's multiset.
	OpInsert OpKind = 0
	// OpDelete retracts one previously inserted incidence. A stream is
	// valid when every prefix has at least as many inserts as deletes
	// for each distinct edge (the turnstile "strict" condition).
	OpDelete OpKind = 1
)

// String returns the wire/JSON spelling of the kind.
func (k OpKind) String() string {
	if k == OpDelete {
		return "delete"
	}
	return "insert"
}

// Op is one element of an operation stream: an edge plus whether it is
// being inserted or deleted. Insert-only streams are exactly the edge
// streams the append-only sketches consume.
type Op struct {
	Kind OpKind
	Edge Edge
}

// OpDeleteBit is the one definition of the 8-byte op record every
// serialized plane shares (WAL op frames, wire op-batch frames): a
// (set, elem) uint32 pair whose set word carries the kind in its top
// bit. A set id therefore has to stay below 1<<31, which server.New
// enforces on Config.NumSets.
const OpDeleteBit uint32 = 1 << 31

// PackOp returns the set word of op's record: its set id, with
// OpDeleteBit raised for a delete. The elem word is op.Edge.Elem as is.
func PackOp(op Op) uint32 {
	if op.Kind == OpDelete {
		return op.Edge.Set | OpDeleteBit
	}
	return op.Edge.Set
}

// RecordWord is a record's two words as the one little-endian uint64
// both serialized planes store and load per record: the set word in the
// low half, the elem word in the high half. uint32(w) and uint32(w>>32)
// split it again.
func RecordWord(set, elem uint32) uint64 { return uint64(set) | uint64(elem)<<32 }

// Record returns op as the one ingest record every product path carries
// from decode to shard state: an Edge whose set word is PackOp(op).
func Record(op Op) Edge { return Edge{Set: PackOp(op), Elem: op.Edge.Elem} }

// IsDelete reports whether the record r carries OpDeleteBit.
func IsDelete(r Edge) bool { return r.Set&OpDeleteBit != 0 }

// UnpackOp is PackOp's inverse over a record's two words.
func UnpackOp(set, elem uint32) Op {
	// OpInsert is 0 and OpDelete is 1, so the kind is the flag bit itself.
	return Op{Kind: OpKind(set >> 31), Edge: Edge{Set: set &^ OpDeleteBit, Elem: elem}}
}

// Inserts wraps a batch of edges as insert ops.
func Inserts(edges []Edge) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{Kind: OpInsert, Edge: e}
	}
	return ops
}

// Deletes wraps a batch of edges as delete ops.
func Deletes(edges []Edge) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{Kind: OpDelete, Edge: e}
	}
	return ops
}
