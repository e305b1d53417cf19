package server

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
)

// This file adds the multi-tenant layer: one process hosting many
// independent coverage datasets. Each namespace owns a full Engine —
// its own shard goroutines, sketch parameters and snapshot sequence —
// so tenants are isolated by construction: no sketch, snapshot or
// counter is ever shared between namespaces, and the
// paper's per-instance space bound (Õ(n/ε³) kept edges, §2) applies to
// each namespace separately. The Multi itself is only a name → Engine
// directory plus lifecycle: creation, deletion and the snapshot-v2
// container that frames every namespace into one file (multisnapshot.go).

// Namespace lifecycle errors. The HTTP layer maps these to status codes
// (404 for unknown, 409 for duplicate creation).
var (
	// ErrNamespaceUnknown is returned when an operation names a namespace
	// that does not exist (or was deleted).
	ErrNamespaceUnknown = errors.New("server: unknown namespace")
	// ErrNamespaceExists is returned by Create for a name already in use.
	ErrNamespaceExists = errors.New("server: namespace already exists")
)

// DefaultNamespace is the namespace the unprefixed (pre-namespace) HTTP
// routes resolve to when the Multi was built without an explicit
// default name.
const DefaultNamespace = "default"

// maxNamespaceName bounds namespace name length.
const maxNamespaceName = 64

// ValidateNamespaceName checks that name is usable as a namespace: 1 to
// 64 characters drawn from [A-Za-z0-9._-], not starting with a dot (so
// "." and ".." can never appear in URL paths or snapshot frames).
func ValidateNamespaceName(name string) error {
	if name == "" {
		return fmt.Errorf("server: empty namespace name")
	}
	if len(name) > maxNamespaceName {
		return fmt.Errorf("server: namespace name longer than %d bytes", maxNamespaceName)
	}
	if name[0] == '.' {
		return fmt.Errorf("server: namespace name %q may not start with '.'", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("server: namespace name %q contains %q (allowed: letters, digits, '.', '_', '-')", name, c)
		}
	}
	return nil
}

// Multi hosts N independent Engines keyed by namespace name. All
// methods are safe for concurrent use; the directory lock is held only
// for map access, never across engine operations, so a slow merge or a
// backpressured ingest in one namespace cannot block lifecycle calls or
// traffic in another.
//
// Create-vs-ingest races are resolved by the engine handle: Get returns
// the live engine under a read lock, and a Delete that wins the race
// removes the name first and closes the engine after, so an in-flight
// Ingest on the doomed handle either completes before the shard
// mailboxes close or fails with ErrClosed — it can never touch a
// different tenant's sketch.
type Multi struct {
	defaultName string

	mu     sync.RWMutex
	ns     map[string]*Engine
	closed bool
	// dur, when non-nil, is the durability template (SetDurability):
	// Create gives each namespace a WAL in dur.Dir/<name>, and Delete
	// removes that directory with the namespace.
	dur *WALConfig
}

// NewMulti returns an empty namespace directory. defaultName is the
// namespace the legacy (unprefixed) routes and the empty name resolve
// to; "" selects DefaultNamespace. No namespace is created implicitly —
// callers bootstrap with Create or RestoreAll.
func NewMulti(defaultName string) *Multi {
	if defaultName == "" {
		defaultName = DefaultNamespace
	}
	return &Multi{defaultName: defaultName, ns: make(map[string]*Engine)}
}

// DefaultName reports which namespace the empty name aliases.
func (m *Multi) DefaultName() string { return m.defaultName }

// Create validates name and cfg, starts a fresh Engine for the
// namespace and returns it. It fails with ErrNamespaceExists if the
// name is taken and ErrClosed after Close. The engine is started
// outside the directory lock and published only on success, so a
// concurrent Get never observes a half-built namespace.
func (m *Multi) Create(name string, cfg Config) (*Engine, error) {
	if err := ValidateNamespaceName(name); err != nil {
		return nil, err
	}
	// Cheap pre-check without holding the lock across engine startup.
	m.mu.RLock()
	_, taken := m.ns[name]
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrNamespaceExists, name)
	}
	// Durability plane armed: the namespace logs (and recovers) in its
	// own subdirectory of the WAL root. An explicit cfg.WAL wins, so
	// tests and embedders can still place a log manually.
	if d := m.durability(); d != nil && cfg.WAL == nil {
		cfg.WAL = d.namespaceWAL(name)
	}
	eng, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		eng.Close()
		return nil, ErrClosed
	}
	if _, taken := m.ns[name]; taken {
		m.mu.Unlock()
		eng.Close() // lost a create-create race; the winner's engine stands
		return nil, fmt.Errorf("%w: %q", ErrNamespaceExists, name)
	}
	m.ns[name] = eng
	m.mu.Unlock()
	return eng, nil
}

// Get resolves a namespace to its engine. The empty name resolves to
// the default namespace.
func (m *Multi) Get(name string) (*Engine, bool) {
	if name == "" {
		name = m.defaultName
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.ns[name]
	return e, ok
}

// Default resolves the default namespace (false until it is created).
func (m *Multi) Default() (*Engine, bool) { return m.Get(m.defaultName) }

// Delete removes the namespace and stops its engine, releasing its
// sketches. In-flight operations on the engine finish or fail with
// ErrClosed; other namespaces are unaffected. Deleting an unknown
// namespace returns ErrNamespaceUnknown.
func (m *Multi) Delete(name string) error {
	if name == "" {
		name = m.defaultName
	}
	m.mu.Lock()
	e, ok := m.ns[name]
	if ok {
		delete(m.ns, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNamespaceUnknown, name)
	}
	// Close drains the shard goroutines; done outside the directory lock
	// so sibling namespaces keep serving while this one winds down.
	err := e.Close()
	// A deleted namespace must not resurrect at the next startup: its WAL
	// directory (segments + config sidecar) goes with it.
	if d := m.durability(); d != nil {
		if rerr := os.RemoveAll(d.namespaceWAL(name).Dir); err == nil {
			err = rerr
		}
	}
	return err
}

// NamespaceInfo is a directory entry: the namespace's configuration
// plus cheap (atomic-read) traffic counters. Deep per-shard accounting
// stays behind Engine.Stats, which rides the shard mailboxes.
type NamespaceInfo struct {
	// Name is the namespace key.
	Name string `json:"name"`
	// Default reports whether the legacy unprefixed routes alias this
	// namespace.
	Default bool `json:"default"`
	// NumSets, K, Eps, Seed and Shards echo the namespace's Config.
	NumSets int     `json:"num_sets"`
	K       int     `json:"k"`
	Eps     float64 `json:"eps"`
	Seed    uint64  `json:"seed"`
	Shards  int     `json:"shards"`
	// Weighted reports whether the namespace serves weighted coverage
	// (Config.Weights set).
	Weighted bool `json:"weighted,omitempty"`
	// Engine names an engine mode selected by name ("dynamic"); omitted
	// for the sketch and weighted modes, whose listing shape predates the
	// field.
	Engine ModeName `json:"engine,omitempty"`
	// IngestedEdges is the number of edges the namespace has accepted.
	IngestedEdges int64 `json:"ingested_edges"`
	// SnapshotSeq is the namespace's current merge sequence number (0
	// before the first merge).
	SnapshotSeq uint64 `json:"snapshot_seq"`
}

func infoFor(name string, e *Engine, isDefault bool) NamespaceInfo {
	// e.cfg is fixed at New, so listings read it in place.
	cfg := &e.cfg
	info := NamespaceInfo{
		Name:          name,
		Default:       isDefault,
		NumSets:       cfg.NumSets,
		K:             cfg.K,
		Eps:           cfg.Eps,
		Seed:          cfg.Seed,
		Shards:        cfg.shards(),
		Weighted:      cfg.Weights != nil,
		Engine:        cfg.Engine,
		IngestedEdges: e.IngestedEdges(),
	}
	if snap := e.snap.Load(); snap != nil {
		info.SnapshotSeq = snap.Seq
	}
	return info
}

// List returns one entry per namespace, sorted by name.
func (m *Multi) List() []NamespaceInfo {
	type entry struct {
		name string
		eng  *Engine
	}
	m.mu.RLock()
	entries := make([]entry, 0, len(m.ns))
	for name, e := range m.ns {
		entries = append(entries, entry{name, e})
	}
	m.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]NamespaceInfo, len(entries))
	for i, en := range entries {
		out[i] = infoFor(en.name, en.eng, en.name == m.defaultName)
	}
	return out
}

// Close stops every namespace engine. Subsequent Create/Delete calls
// fail with ErrClosed; Close is idempotent. The first engine error is
// returned but every engine is closed regardless.
func (m *Multi) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	engines := make([]*Engine, 0, len(m.ns))
	for _, e := range m.ns {
		engines = append(engines, e)
	}
	m.ns = make(map[string]*Engine)
	m.mu.Unlock()
	var first error
	for _, e := range engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
