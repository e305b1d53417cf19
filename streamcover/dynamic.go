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

// Op is one element of a dynamic stream: an edge plus whether it is
// being retracted. The zero Op inserts.
type Op struct {
	// Delete retracts one previously inserted copy of Edge. A stream is
	// valid when no edge is ever deleted more times than it was inserted.
	Delete bool
	Edge   Edge
}

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
	_, err := s.engine.IngestOps(engineOps(ops))
	return err
}

// engineOps spells each op's kind as the engine's bipartite.Op does.
func engineOps(ops []Op) []bipartite.Op {
	conv := make([]bipartite.Op, len(ops))
	for i, op := range ops {
		conv[i] = bipartite.Op{Kind: bipartite.OpInsert, Edge: op.Edge}
		if op.Delete {
			conv[i].Kind = bipartite.OpDelete
		}
	}
	return conv
}

// Delete retracts a batch of previously inserted edges — ApplyOps with
// every op a delete. Dynamic services only.
func (s *Service) Delete(edges []Edge) error {
	_, err := s.engine.IngestOps(bipartite.Deletes(edges))
	return err
}
