package streamcover

import (
	"fmt"
	"io"

	"repro/internal/server"
)

// Hub hosts many independent coverage Services in one process, keyed by
// namespace name. Each namespace is a full Service — its own shard
// workers, sketch parameters and snapshots — so datasets
// are isolated by construction: a namespace's answers are bit-identical
// to a standalone Service fed the same edges with the same options (the
// package tests pin this), and its memory follows the paper's
// per-instance Õ(n/ε³) sketch bound independently of its neighbors.
//
// Use OpenNamespace to create namespaces and keep the returned Service
// handles; WriteSnapshot persists every namespace into one file that
// RestoreHub rebuilds wholesale. The zero Hub is not usable; construct
// with NewHub and Close when done. cmd/covserved exposes a hub-shaped
// directory over HTTP (the /v1/ns routes).
type Hub struct {
	multi *server.Multi
}

// DefaultNamespace is the namespace name a Hub treats as the default —
// the one single-dataset (pre-namespace) snapshot files restore into.
const DefaultNamespace = server.DefaultNamespace

// NewHub returns an empty hub. Namespaces are created explicitly with
// OpenNamespace (none exists up front, not even the default).
func NewHub() *Hub {
	return &Hub{multi: server.NewMulti(server.DefaultNamespace)}
}

// RestoreHub rebuilds a hub from a multi-namespace snapshot written by
// Hub.WriteSnapshot: every namespace is recreated with its persisted
// options and sketch. Retrieve handles with Namespace. Single-service
// snapshots (Service.WriteSnapshot) are a different format; load them
// with RestoreNamespace or RestoreService instead.
func RestoreHub(r io.Reader) (*Hub, error) {
	h := NewHub()
	if _, err := h.multi.RestoreAll(r); err != nil {
		h.Close()
		return nil, fmt.Errorf("streamcover: restoring hub: %w", err)
	}
	return h, nil
}

// serviceConfig translates public ServiceOptions to an engine Config.
func serviceConfig(numSets int, opt ServiceOptions) (server.Config, error) {
	if numSets <= 0 {
		return server.Config{}, fmt.Errorf("streamcover: service needs positive numSets")
	}
	if opt.K <= 0 {
		return server.Config{}, fmt.Errorf("streamcover: ServiceOptions.K must be positive")
	}
	return server.Config{
		NumSets:     numSets,
		K:           opt.K,
		Eps:         opt.Eps,
		Seed:        opt.Seed,
		NumElems:    opt.NumElems,
		EdgeBudget:  opt.EdgeBudget,
		SpaceFactor: opt.SpaceFactor,
		Shards:      opt.Shards,
		QueueDepth:  opt.BatchQueue,
		MergeEvery:  opt.MergeEvery,
		Engine:      server.ModeName(opt.Engine),
		// The engine clones the table, so the caller may keep mutating its
		// copy without aliasing the namespace's weights.
		Weights: opt.Weights,
		WAL:     opt.Durability.walConfig(),
	}, nil
}

// OpenNamespace creates namespace name for instances with numSets sets
// and returns its Service handle — the same handle type NewService
// returns, so everything a Service does (Ingest, KCover, Stats,
// WriteSnapshot, …) works per namespace. A namespace opened with
// opt.Weights set is a weighted-coverage dataset; its weight table
// travels with the hub snapshot, so RestoreHub rebuilds it wholesale.
// Opening an existing name fails; look the handle up with Namespace
// instead.
func (h *Hub) OpenNamespace(name string, numSets int, opt ServiceOptions) (*Service, error) {
	cfg, err := serviceConfig(numSets, opt)
	if err != nil {
		return nil, err
	}
	eng, err := h.multi.Create(name, cfg)
	if err != nil {
		return nil, err
	}
	return &Service{engine: eng}, nil
}

// RestoreNamespace creates namespace name seeded from a single-service
// snapshot written by Service.WriteSnapshot (or covserved's v1 snapshot
// files), with numSets and opt matching the writing service. It is the
// bridge from single-dataset deployments: restoring an old snapshot
// into DefaultNamespace yields the exact pre-namespace behavior.
func (h *Hub) RestoreNamespace(name string, r io.Reader, numSets int, opt ServiceOptions) (*Service, error) {
	cfg, err := serviceConfig(numSets, opt)
	if err != nil {
		return nil, err
	}
	cfg, err = server.ReadRestore(cfg, r)
	if err != nil {
		return nil, fmt.Errorf("streamcover: restoring namespace %q: %w", name, err)
	}
	eng, err := h.multi.Create(name, cfg)
	if err != nil {
		return nil, err
	}
	return &Service{engine: eng}, nil
}

// Namespace returns the Service handle for an existing namespace.
func (h *Hub) Namespace(name string) (*Service, bool) {
	eng, ok := h.multi.Get(name)
	if !ok {
		return nil, false
	}
	return &Service{engine: eng}, true
}

// Namespaces lists the hub's namespace names, sorted (List returns
// entries in name order).
func (h *Hub) Namespaces() []string {
	infos := h.multi.List()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// DeleteNamespace stops the namespace's workers and removes it. Its
// Service handles fail afterwards; other namespaces are unaffected.
func (h *Hub) DeleteNamespace(name string) error {
	return h.multi.Delete(name)
}

// WriteSnapshot merges every namespace and writes the hub as one
// multi-namespace snapshot (format v2), restorable with RestoreHub.
func (h *Hub) WriteSnapshot(w io.Writer) error {
	return h.multi.WriteSnapshot(w)
}

// Multi exposes the underlying namespace directory, e.g. to mount the
// multi-tenant HTTP API with server.NewMultiHandler.
func (h *Hub) Multi() *server.Multi { return h.multi }

// Close stops every namespace. Idempotent.
func (h *Hub) Close() error { return h.multi.Close() }
