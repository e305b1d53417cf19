package streamcover

import (
	"time"

	"repro/internal/server"
)

// Durability configures the write-ahead log of a Service or Hub
// (DESIGN.md §12). With durability enabled, every accepted Ingest batch
// is appended to a CRC-framed log on disk before it reaches the ingest
// workers, and construction replays any log tail a restored snapshot
// does not cover — so a crash loses at most what the fsync policy had
// not yet forced to stable storage, and recovery rebuilds the exact
// pre-crash state. It is a type of its own, not an alias of the engine's
// WAL configuration, so that the log's fault-injection hook stays
// unpublished.
type Durability struct {
	// Dir is the log directory. For a Service it holds the log directly;
	// for a Hub it is the root, with one subdirectory per namespace.
	// Required.
	Dir string
	// Fsync is the fsync policy: "always" (a batch is on stable storage
	// before Ingest returns), "interval" (the default; fsync on a timer —
	// a power loss can drop up to FsyncInterval of acknowledged batches)
	// or "off" (kernel-buffered only: survives a process crash, not a
	// power loss).
	Fsync string
	// FsyncInterval is the "interval" policy's period (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates log segments at this size (default 64 MiB).
	SegmentBytes int64
}

func (d *Durability) walConfig() *server.WALConfig {
	if d == nil {
		return nil
	}
	return &server.WALConfig{
		Dir:           d.Dir,
		Fsync:         d.Fsync,
		FsyncInterval: d.FsyncInterval,
		SegmentBytes:  d.SegmentBytes,
	}
}

// Checkpoint persists the service state to path with full crash-safety:
// a batch-aligned snapshot is written atomically (temp file + fsync +
// rename + directory fsync), and on a durable service the write-ahead
// log is then truncated to the frames the snapshot does not cover.
// RestoreService (with matching options and Durability) reloads it.
func (s *Service) Checkpoint(path string) error {
	_, err := server.CheckpointEngine(s.engine, path)
	return err
}

// SetDurability arms the hub's durability plane: every namespace
// created, restored or recovered afterwards runs with a write-ahead log
// in d.Dir's subdirectory named after it, and DeleteNamespace removes
// that subdirectory with the namespace. Call before opening namespaces;
// a nil d disarms.
func (h *Hub) SetDurability(d *Durability) {
	h.multi.SetDurability(d.walConfig())
}

// RecoverNamespaces rebuilds namespaces that left a write-ahead log
// behind but are not in the hub — created after the last snapshot, or
// never snapshotted — from their persisted configuration and log
// replay. Call it after RestoreHub (or on a fresh hub) once durability
// is armed; it returns the recovered names. Together the two cover
// every namespace: RestoreHub restores the snapshotted ones (their log
// tails replay when the hub is durable), and RecoverNamespaces the
// rest.
func (h *Hub) RecoverNamespaces() ([]string, error) {
	return h.multi.RecoverNamespaces()
}

// Checkpoint persists every namespace into one multi-namespace snapshot
// at path with full crash-safety (atomic durable write, then per-
// namespace log truncation). RestoreHub reloads it.
func (h *Hub) Checkpoint(path string) error {
	return server.CheckpointMulti(h.multi, path)
}

// StartAutosnapshot checkpoints the hub to path every interval,
// bounding both the data at risk under the "interval"/"off" fsync
// policies and the log replay length at the next startup. onErr, when
// non-nil, receives every failed checkpoint. The returned stop function
// halts the loop and waits for an in-flight checkpoint.
func (h *Hub) StartAutosnapshot(path string, interval time.Duration, onErr func(error)) (stop func()) {
	return h.multi.StartAutosnapshot(path, interval, onErr)
}
