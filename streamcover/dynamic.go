package streamcover

// The public surface of the dynamic (insert/delete) engine mode: a
// turnstile-stream coverage service backed by the leveled L0 edge
// sampler (internal/l0, DESIGN.md §14). Inserts behave exactly like the
// other engines'; Delete retracts previously inserted edges, and
// queries answer on the H≤n sketch of the net (insert − delete) edge
// multiset, cut at the sampler level that decoded.

import (
	"repro/internal/bipartite"
	"repro/internal/server"
)

// Op is one element of a dynamic stream: an edge plus its kind. The
// zero Op inserts; Op{Kind: OpDelete, Edge: e} retracts one previously
// inserted copy of e. A stream is valid when no edge is ever deleted
// more times than it was inserted. It is the engine's own op type, so
// batches pass from this API to the shards and the wire without a copy.
type Op = bipartite.Op

// OpKind is an Op's kind: OpInsert or OpDelete.
type OpKind = bipartite.OpKind

// The two op kinds.
const (
	OpInsert = bipartite.OpInsert
	OpDelete = bipartite.OpDelete
)

// NewDynamicService starts a dynamic coverage service: the only engine
// mode that accepts deletes. Its sampler is a linear function of the
// net op multiset, so answers are independent of op order, sharding and
// batching — and its snapshot is the sketch engine's of the same net
// edges whenever the decoded level reaches the sketch's budget (on small
// streams level 0 holds them all). It is NewService with
// opt.Engine = "dynamic".
func NewDynamicService(numSets int, opt ServiceOptions) (*Service, error) {
	opt.Engine = string(server.ModeDynamic)
	return NewService(numSets, opt)
}

// ApplyOps absorbs one batch of inserts and deletes. Insert-only
// batches take exactly the Ingest path on any engine; a batch carrying
// deletes requires a dynamic service and fails with a typed error
// (server.ErrDeletesUnsupported) on the append-only engines. Safe for
// concurrent use; all-or-nothing like Ingest.
func (s *Service) ApplyOps(ops []Op) error {
	_, err := s.engine.IngestOps(ops)
	return err
}

// Delete retracts a batch of previously inserted edges — ApplyOps with
// every op a delete. Dynamic services only.
func (s *Service) Delete(edges []Edge) error {
	_, err := s.engine.IngestOps(bipartite.Deletes(edges))
	return err
}
