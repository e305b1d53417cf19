package server

// This file is the service side of the durability plane (DESIGN.md
// §12): engines append every accepted batch to a per-engine
// write-ahead log (internal/wal) before it reaches the shard mailboxes,
// checkpoints cut batch-aligned snapshots whose persisted edge totals
// land exactly on WAL record boundaries, and startup recovery replays
// the WAL tail a restored snapshot does not cover through the normal
// routing path — so a recovered engine is bit-identical to one that
// never crashed. The recovery ordering is: write the snapshot container
// atomically (temp + fsync + rename + parent-dir sync), then truncate
// the WAL; a crash between the two leaves only frames the snapshot
// already covers, which replay skips.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/wal"
)

// WALConfig makes an engine durable: every accepted Ingest batch is
// logged before it is enqueued to the shard mailboxes, and New replays
// the log tail at startup. See Config.WAL.
type WALConfig struct {
	// Dir is the log directory (per engine; a Multi with SetDurability
	// gives each namespace the subdirectory named after it). Required.
	Dir string
	// Fsync is the fsync policy: "always" (durable before Ingest
	// returns), "interval" (the default; fsync on a timer) or "off"
	// (kernel-buffered only — survives a process crash, not power loss).
	Fsync string
	// FsyncInterval is the "interval" policy's fsync period (default
	// 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the segment rotation threshold (default 64 MiB).
	SegmentBytes int64
	// OpenWrite, when non-nil, opens segment files for writing — the
	// fault-injection hook (internal/wal/faultfs). Production leaves it
	// nil.
	OpenWrite func(path string) (wal.WriteFile, error)
}

func (d *WALConfig) clone() *WALConfig {
	if d == nil {
		return nil
	}
	c := *d
	return &c
}

// walConfigName is the per-WAL-dir sidecar persisting the engine's
// Config JSON (the snapshot container's config frame, byte for byte), so
// Multi.RecoverNamespaces can rebuild a namespace that was never
// captured in a snapshot container.
const walConfigName = "config.json"

// openWAL opens (and replays) the engine's write-ahead log during New,
// before the shard goroutines start: every surviving frame past seed —
// the edge total the restored snapshot state already reflects — goes
// through submit in replay mode, so it is validated, routed and cut
// into per-shard sub-batches by the very code that handled the original
// Ingest call, and the shard states end up exactly as if those calls
// had re-run. A delete frame replayed into an append-only engine fails
// recovery with the typed ErrDeletesUnsupported (the WAL belongs to a
// dynamic engine — a config mismatch, not data loss).
func (e *Engine) openWAL(states []ShardState, seed int64) error {
	d := e.cfg.WAL
	policy, err := wal.ParsePolicy(d.Fsync)
	if err != nil {
		return fmt.Errorf("server: Config.WAL: %w", err)
	}
	wlog, err := wal.Open(wal.Options{
		Dir:          d.Dir,
		Policy:       policy,
		Interval:     d.FsyncInterval,
		SegmentBytes: d.SegmentBytes,
		OpenWrite:    d.OpenWrite,
	}, seed, func(_ int64, recs []bipartite.Edge) error {
		_, err := e.submit(recs, ^bipartite.OpDeleteBit, states)
		return err
	})
	if err != nil {
		return fmt.Errorf("server: recovering WAL: %w", err)
	}
	if err := writeWALConfig(d.Dir, &e.cfg); err != nil {
		wlog.Close()
		return err
	}
	e.wal = wlog
	return nil
}

// writeWALConfig persists the engine's Config beside its segments.
func writeWALConfig(dir string, cfg *Config) error {
	frame, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(dir, walConfigName), func(w io.Writer) error {
		_, werr := w.Write(frame)
		return werr
	}); err != nil {
		return fmt.Errorf("server: persisting WAL config: %w", err)
	}
	return nil
}

// Checkpoint publishes a batch-aligned snapshot: one whose
// IngestedEdges total lands exactly on a WAL record boundary, so a
// restore of its persisted state replays the remaining WAL tail without
// splitting any frame. A plain Refresh cannot promise that — a
// concurrent Ingest may have reached some shard mailboxes but not
// others when the merge requests cut through them — so Checkpoint holds
// the ingest lock exclusively (Ingest holds it shared across all of its
// enqueues) just long enough to place the state requests, guaranteeing
// the cut observes only complete batches. The snapshot is published
// like any refresh; on an engine without a WAL, Checkpoint is simply a
// Refresh with a momentarily exclusive cut.
func (e *Engine) Checkpoint() (*Snapshot, error) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.ingestMu.Lock()
	if e.closed {
		e.ingestMu.Unlock()
		e.refreshErrors.Add(1)
		return nil, ErrClosed
	}
	// Idle short-circuit: with the ingest lock held exclusively the
	// counter is exact, so an unchanged count means the published
	// snapshot already sits on the current (aligned) frontier.
	ingested := e.ingested.Load()
	if snap := e.snap.Load(); snap != nil && snap.IngestedEdges == ingested {
		e.ingestMu.Unlock()
		e.refreshSkips.Add(1)
		return snap, nil
	}
	replies := e.requestStates(true)
	// The cut is placed; later Ingests order behind it in every mailbox,
	// so gathering can proceed without blocking them.
	e.ingestMu.Unlock()
	return e.buildSnapshot(replies)
}

// truncateWAL drops WAL segments fully covered by a durable snapshot
// reflecting the first end edges. No-op without a WAL.
func (e *Engine) truncateWAL(end int64) error {
	if e.wal == nil {
		return nil
	}
	return e.wal.TruncateBefore(end)
}

// WALStats reports the engine's write-ahead-log accounting (zero value
// without a WAL).
func (e *Engine) WALStats() wal.Stats {
	if e.wal == nil {
		return wal.Stats{}
	}
	return e.wal.Stats()
}

// CheckpointEngine checkpoints one engine to path: batch-aligned
// snapshot, atomic durable write (v1 state bytes), then WAL truncation
// — in that order, so a crash at any point leaves either the old
// snapshot plus a full WAL or the new snapshot plus a (possibly
// not-yet-truncated) WAL whose covered frames replay as no-ops.
func CheckpointEngine(e *Engine, path string) (*Snapshot, error) {
	snap, err := e.Checkpoint()
	if err != nil {
		return nil, err
	}
	if err := atomicWrite(path, snap.WriteState); err != nil {
		return nil, err
	}
	if err := e.truncateWAL(snap.IngestedEdges); err != nil {
		return snap, err
	}
	return snap, nil
}

// CheckpointMulti checkpoints every namespace into one v2 container at
// path (atomic durable write), then truncates each namespace's WAL to
// the frames its frame in the container does not cover.
func CheckpointMulti(m *Multi, path string) error {
	type cut struct {
		e    *Engine
		edge int64
	}
	var cuts []cut
	err := atomicWrite(path, func(w io.Writer) error {
		return m.writeSnapshotWith(w, func(e *Engine) (*Snapshot, error) {
			snap, err := e.Checkpoint()
			if err == nil {
				cuts = append(cuts, cut{e, snap.IngestedEdges})
			}
			return snap, err
		})
	})
	if err != nil {
		return err
	}
	var first error
	for _, c := range cuts {
		if err := c.e.truncateWAL(c.edge); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetDurability arms the directory's durability plane: every namespace
// created (or restored, or recovered) afterwards runs with a WAL in
// root Dir's subdirectory named after it, and Delete removes that
// subdirectory with the namespace. Call before any Create; d.Dir is the
// root. A nil d disarms.
func (m *Multi) SetDurability(d *WALConfig) {
	m.mu.Lock()
	m.dur = d.clone()
	m.mu.Unlock()
}

// durability returns the directory's WAL template (nil when disarmed).
func (m *Multi) durability() *WALConfig {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dur
}

// namespaceWAL derives a namespace's WALConfig from the directory
// template (namespace names are validated to be filesystem-safe).
func (d *WALConfig) namespaceWAL(name string) *WALConfig {
	c := *d
	c.Dir = filepath.Join(d.Dir, name)
	return &c
}

// RecoverNamespaces scans the durability root for namespaces that left
// a WAL behind but are absent from the directory — created after the
// last container snapshot, or never snapshotted at all — and recreates
// each from its persisted config sidecar, replaying its full WAL.
// Called after RestoreAll at startup, it closes the recovery picture:
// snapshotted namespaces restore + replay their tails via Create's WAL
// injection, and the rest are rebuilt here. Returns the recovered
// names, sorted.
func (m *Multi) RecoverNamespaces() ([]string, error) {
	d := m.durability()
	if d == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(d.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: scanning durability root: %w", err)
	}
	var names []string
	for _, en := range entries {
		name := en.Name()
		if !en.IsDir() || ValidateNamespaceName(name) != nil {
			continue
		}
		if _, ok := m.Get(name); ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(d.Dir, name, walConfigName))
		if os.IsNotExist(err) {
			continue // not a namespace WAL directory
		}
		if err != nil {
			return names, fmt.Errorf("server: recovering namespace %q: %w", name, err)
		}
		var cfg Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return names, fmt.Errorf("server: recovering namespace %q: decoding %s: %w", name, walConfigName, err)
		}
		if _, err := m.Create(name, cfg); err != nil {
			return names, fmt.Errorf("server: recovering namespace %q: %w", name, err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// StartAutosnapshot checkpoints the whole directory to path every
// interval (CheckpointMulti: atomic v2 container write, then WAL
// truncation), bounding both the data at risk under the "off"/"interval"
// fsync policies and the WAL replay length at the next startup. onErr,
// when non-nil, receives every failed checkpoint. The returned stop
// function halts the loop and waits for an in-flight checkpoint to
// finish; it is safe to call once.
func (m *Multi) StartAutosnapshot(path string, interval time.Duration, onErr func(error)) (stop func()) {
	if interval <= 0 || path == "" {
		return func() {}
	}
	stopC := make(chan struct{})
	doneC := make(chan struct{})
	go func() {
		defer close(doneC)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopC:
				return
			case <-t.C:
				if err := CheckpointMulti(m, path); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() {
		close(stopC)
		<-doneC
	}
}
