// Package wal is the durability plane's write-ahead log: a
// per-namespace append-only log of ingest record batches, written as
// length-prefixed CRC32C-framed binary records across rotated segment
// files. The service logs every ingest batch here *before* handing it
// to the shard mailboxes, so a crash loses at most the frames the
// configured fsync policy had not yet forced to stable storage;
// recovery restores the last durable snapshot and replays the WAL tail
// through the normal ingest path, and because the paper's sketch is a
// deterministic function of the routed per-shard streams the recovered
// engine is bit-identical to one that never crashed (the server
// package's fault-injection tests pin this for all three engine modes).
//
// # On-disk format
//
// A log is a directory of segment files named %020d.wal in strictly
// increasing sequence order. Every segment starts with the 8-byte magic
// "COVWAL1\n" followed by frames:
//
//	uint32  length   body size in bytes (8 + 8×records)
//	uint32  crc      CRC32C (Castagnoli) of the body
//	uint64  offset   cumulative record index of the frame's first record
//	records × (uint32 set, uint32 elem)
//
// All integers are little-endian, matching the sketch wire formats. The
// explicit per-frame offset makes segments self-describing: recovery
// skips frames a restored snapshot already covers (end ≤ snapshot
// edges) without any side index, and contiguity of the replayed tail is
// checked frame by frame, so a corrupted or missing middle segment
// surfaces as a clear gap error instead of silent data loss.
//
// # Op frames
//
// A record is a bipartite.Edge whose set word may carry
// bipartite.OpDeleteBit: the dynamic (insert/delete) engine mode logs
// deletes as records with that bit raised. A frame holding such a
// record is an op frame: the v1 layout with the top bit of the length
// word set as well (the true body size is length &^ 1<<31). Append
// raises that flag only when a record of the batch carries a delete, so
// delete-free batches use the v1 encoding byte for byte and logs written
// by delete-free workloads are indistinguishable from v1 logs. In a v1
// frame the delete bit is corruption, never a huge set id. A reader
// that predates the extension stops cleanly at the first op frame: the
// flagged length word exceeds maxFrameBody, which the torn-tail rule
// treats as a clean segment end, so old binaries never misread a delete
// as an insert. Open hands every record back as written, delete bit
// included; whether the caller can apply a delete is the caller's
// question (the server engine refuses a delete log in an append-only
// mode with its ErrDeletesUnsupported).
//
// # Torn-tail rule
//
// A crash can leave a partially written final frame. The reader stops a
// segment cleanly at the first frame that is short, oversized, or fails
// its CRC — those bytes were never acknowledged as durable — and
// continues with the next segment (a restarted writer always opens a
// fresh segment, so valid data never follows a torn tail within one
// file). Only a missing stretch of acknowledged offsets is an error.
//
// # Fsync policies
//
// SyncAlways forces every append to stable storage before it returns
// (concurrent appenders coalesce: one fsync can acknowledge several
// frames — group commit). SyncEvery fsyncs on a timer, bounding loss to
// the interval. SyncOff never fsyncs: frames still reach the kernel
// with every append (a process crash loses nothing), but a power loss
// may drop the tail.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
)

// SyncPolicy selects when appended frames are fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs before every Append returns (group-committed:
	// concurrent appends share fsyncs).
	SyncAlways SyncPolicy = "always"
	// SyncEvery fsyncs on a timer (Options.Interval); an append returns
	// once its frame reached the kernel.
	SyncEvery SyncPolicy = "interval"
	// SyncOff never fsyncs; the OS flushes on its own schedule.
	SyncOff SyncPolicy = "off"
)

// ParsePolicy validates a policy name ("" selects SyncEvery).
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncEvery, nil
	case SyncAlways, SyncEvery, SyncOff:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (known: %q, %q, %q)",
		s, SyncAlways, SyncEvery, SyncOff)
}

// WriteFile is the writable-file surface the log needs — satisfied by
// *os.File and by the fault-injecting writers of wal/faultfs, which is
// how the crash-recovery tests tear frames at arbitrary byte offsets.
type WriteFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing). Required.
	Dir string
	// Policy is the fsync policy (default SyncEvery).
	Policy SyncPolicy
	// Interval is the SyncEvery fsync period (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size (default 64 MiB).
	SegmentBytes int64
	// OpenWrite opens a segment file for appending (default: os.Create).
	// The fault-injection harness substitutes writers that tear or drop
	// writes at a chosen byte offset.
	OpenWrite func(path string) (WriteFile, error)
}

func (o Options) policy() (SyncPolicy, error) { return ParsePolicy(string(o.Policy)) }

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return o.Interval
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 64 << 20
	}
	return o.SegmentBytes
}

func (o Options) openWrite(path string) (WriteFile, error) {
	if o.OpenWrite != nil {
		return o.OpenWrite(path)
	}
	return os.Create(path)
}

const (
	segMagic = "COVWAL1\n"
	segExt   = ".wal"
	// frameHeader is the fixed frame prefix: uint32 length + uint32 crc.
	frameHeader = 8
	// maxFrameBody bounds a frame's declared body size; anything larger
	// is treated as a torn/corrupt frame, never allocated.
	maxFrameBody = 1 << 27
	// opFrameFlag marks an op frame in the length word. Deliberately past
	// maxFrameBody so pre-extension readers stop cleanly at the first op
	// frame instead of misreading delete records as inserts.
	opFrameFlag uint32 = 1 << 31
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: log closed")

// sealed is a read-only predecessor segment kept for replay until a
// checkpoint covers it.
type sealed struct {
	path string
	// end is the offset past the segment's last valid frame (0 when the
	// segment holds no valid frames — always safe to delete).
	end int64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	opt    Options
	policy SyncPolicy

	writeMu  sync.Mutex
	f        WriteFile
	segPath  string
	segSeq   uint64
	segBytes int64
	next     int64 // offset the next appended frame will carry
	sealed   []sealed
	scratch  []byte
	closed   bool

	// syncMu serializes fsyncs; synced is the highest offset known
	// durable, letting concurrent SyncAlways appenders coalesce: whoever
	// acquires syncMu first syncs for everyone behind it.
	syncMu sync.Mutex
	synced int64

	appends   atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64

	stopC chan struct{}
	doneC chan struct{}
}

// truncName is the truncation marker file: the highest checkpoint
// offset whose covered frames TruncateBefore may have deleted. Without
// it a fully truncated log is indistinguishable from an empty one, and
// a restart that forgot its snapshot would silently come up empty
// instead of erroring.
const truncName = "TRUNCATED"

func readTruncMarker(dir string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, truncName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading truncation marker: %w", err)
	}
	v, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if perr != nil || v < 0 {
		return 0, fmt.Errorf("wal: corrupt truncation marker %q", b)
	}
	return v, nil
}

func writeTruncMarker(dir string, off int64) error {
	tmp := filepath.Join(dir, truncName+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.FormatInt(off, 10)+"\n"), 0o666); err != nil {
		return fmt.Errorf("wal: writing truncation marker: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, truncName)); err != nil {
		return fmt.Errorf("wal: publishing truncation marker: %w", err)
	}
	return nil
}

// Open scans opts.Dir, replays every surviving frame past seed through
// fn (frames whose end ≤ seed are skipped — a restored snapshot already
// covers them), and opens a fresh segment for appending at the
// recovered offset. seed is the record offset the caller's restored
// state already reflects; with no snapshot it is 0. A frame that
// straddles seed, or a gap in the replayed offsets (possible only if
// acknowledged segments were corrupted or deleted), is an error; a torn
// tail is not. Recovery that accounts for fewer records than the log's
// truncation marker is also an error — the missing prefix was deleted
// after a checkpoint, so the caller must first restore the covering
// snapshot.
//
// fn receives each frame's records as Append logged them: a delete
// keeps bipartite.OpDeleteBit in its set word. The slice is reused for
// the next frame.
func Open(opts Options, seed int64, fn func(offset int64, recs []bipartite.Edge) error) (*Log, error) {
	policy, err := opts.policy()
	if err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if seed < 0 {
		return nil, fmt.Errorf("wal: negative seed offset %d", seed)
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: creating log dir: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	trunc, err := readTruncMarker(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opt: opts, policy: policy, next: seed, synced: seed}
	maxSeq := uint64(0)
	for _, sf := range segs {
		if sf.seq > maxSeq {
			maxSeq = sf.seq
		}
		end, err := scanSegment(sf.path, func(off int64, recs []bipartite.Edge) error {
			frameEnd := off + int64(len(recs))
			switch {
			case frameEnd <= l.next:
				return nil // snapshot (or an earlier replay) already covers it
			case off < l.next:
				return fmt.Errorf("wal: frame [%d,%d) straddles recovery offset %d", off, frameEnd, l.next)
			case off > l.next:
				return fmt.Errorf("wal: gap: log resumes at offset %d but only %d edges are accounted for", off, l.next)
			}
			if fn != nil {
				if err := fn(off, recs); err != nil {
					return err
				}
			}
			l.next = frameEnd
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", filepath.Base(sf.path), err)
		}
		l.sealed = append(l.sealed, sealed{path: sf.path, end: end})
	}
	if l.next < trunc {
		return nil, fmt.Errorf("wal: log was truncated at offset %d by a checkpoint, but restored state and surviving frames account for only %d edges; restore the snapshot covering the checkpoint first", trunc, l.next)
	}
	l.synced = l.next
	if err := l.openSegmentLocked(maxSeq + 1); err != nil {
		return nil, err
	}
	if policy == SyncEvery {
		l.stopC = make(chan struct{})
		l.doneC = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// OpenOps is Open with each frame's records handed to fn as ops (v1
// edge frames arrive as insert ops). The op slice is reused for the
// next frame.
func OpenOps(opts Options, seed int64, fn func(offset int64, ops []bipartite.Op) error) (*Log, error) {
	if fn == nil {
		return Open(opts, seed, nil)
	}
	var ops []bipartite.Op
	return Open(opts, seed, func(off int64, recs []bipartite.Edge) error {
		ops = ops[:0]
		for _, r := range recs {
			ops = append(ops, bipartite.UnpackOp(r.Set, r.Elem))
		}
		return fn(off, ops)
	})
}

// openSegmentLocked creates segment seq and makes it current. Caller
// holds writeMu (or is the constructor).
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.opt.Dir, fmt.Sprintf("%020d%s", seq, segExt))
	f, err := l.opt.openWrite(path)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f, l.segPath, l.segSeq = f, path, seq
	l.segBytes = int64(len(segMagic))
	return nil
}

// rotateLocked seals the current segment (flushing it to stable
// storage so its frames can be acknowledged by the seal) and opens the
// next one. Caller holds writeMu.
func (l *Log) rotateLocked() error {
	l.syncMu.Lock()
	err := l.f.Sync()
	if err == nil && l.next > l.synced {
		l.synced = l.next
	}
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: syncing sealed segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	l.sealed = append(l.sealed, sealed{path: l.segPath, end: l.next})
	l.rotations.Add(1)
	return l.openSegmentLocked(l.segSeq + 1)
}

// Append logs one record batch and returns the offset its frame
// carries (the cumulative record count before the batch). A record whose
// set word carries bipartite.OpDeleteBit is a delete, and only a batch
// holding one is written as an op frame; any other batch is a v1 edge
// frame. Durability on return follows the sync policy: SyncAlways
// frames are on stable storage, SyncEvery/SyncOff frames have reached
// the kernel. An append error leaves the batch's durability undefined
// (a torn frame may or may not survive); callers must treat it as fatal
// for the log.
func (l *Log) Append(recs []bipartite.Edge) (int64, error) {
	if len(recs) == 0 {
		return l.NextOffset(), nil
	}
	l.writeMu.Lock()
	if l.closed {
		l.writeMu.Unlock()
		return 0, ErrClosed
	}
	if l.segBytes >= l.opt.segmentBytes() {
		if err := l.rotateLocked(); err != nil {
			l.writeMu.Unlock()
			return 0, err
		}
	}
	off := l.next
	frame := l.encodeFrameLocked(off, recs)
	if _, err := l.f.Write(frame); err != nil {
		l.writeMu.Unlock()
		return 0, fmt.Errorf("wal: appending frame: %w", err)
	}
	end := off + int64(len(recs))
	l.next = end
	l.segBytes += int64(len(frame))
	l.appends.Add(1)
	f := l.f
	l.writeMu.Unlock()
	if l.policy == SyncAlways {
		if err := l.syncTo(f, end); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// AppendOps is Append of the ops' records (bipartite.Record): an
// insert-only batch is byte-identical to the Append of its edges.
func (l *Log) AppendOps(ops []bipartite.Op) (int64, error) {
	recs := make([]bipartite.Edge, len(ops))
	for i, op := range ops {
		recs[i] = bipartite.Record(op)
	}
	return l.Append(recs)
}

// syncTo fsyncs f unless a concurrent syncer already covered end — the
// group-commit coalescing of the SyncAlways policy.
func (l *Log) syncTo(f WriteFile, end int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= end {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	l.synced = end
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.writeMu.Lock()
	if l.closed {
		l.writeMu.Unlock()
		return ErrClosed
	}
	f, end := l.f, l.next
	l.writeMu.Unlock()
	return l.syncTo(f, end)
}

func (l *Log) syncLoop() {
	defer close(l.doneC)
	t := time.NewTicker(l.opt.interval())
	defer t.Stop()
	for {
		select {
		case <-l.stopC:
			return
		case <-t.C:
			l.writeMu.Lock()
			if l.closed {
				l.writeMu.Unlock()
				return
			}
			f, end := l.f, l.next
			l.writeMu.Unlock()
			l.syncTo(f, end) // a failing disk resurfaces on Append/Close
		}
	}
}

// encodeFrameLocked builds the frame of recs at offset off in the log's
// scratch buffer, one 8-byte store per record. The same loop ORs the set
// words, so the length word carries opFrameFlag exactly when a record
// carries a delete. Caller holds writeMu.
func (l *Log) encodeFrameLocked(off int64, recs []bipartite.Edge) []byte {
	body := 8 + 8*len(recs)
	if cap(l.scratch) < frameHeader+body {
		l.scratch = make([]byte, frameHeader+body)
	}
	buf := binary.LittleEndian.AppendUint64(l.scratch[:8], uint64(off))
	var sets uint32
	for _, r := range recs {
		sets |= r.Set
		buf = binary.LittleEndian.AppendUint64(buf, bipartite.RecordWord(r.Set, r.Elem))
	}
	flag := uint32(0)
	if sets&bipartite.OpDeleteBit != 0 {
		flag = opFrameFlag
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(body)|flag)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], castagnoli))
	return buf
}

// TruncateBefore deletes sealed segments every frame of which is
// covered by a durable snapshot reflecting the first end edges — the
// post-checkpoint cleanup. The current segment is first rotated away
// when non-empty, so a checkpoint always bounds the log to the frames
// it does not cover. Frames in surviving segments that the snapshot
// covers are skipped (not replayed) at the next recovery. The
// truncation offset is recorded in a marker file *before* any segment
// is deleted, so a later Open that cannot account for the deleted
// prefix refuses recovery instead of silently starting empty (a crash
// between marker and deletion is harmless: the surviving frames still
// account for the marker offset, so Open proceeds).
func (l *Log) TruncateBefore(end int64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.segBytes > int64(len(segMagic)) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if end > 0 {
		cur, err := readTruncMarker(l.opt.Dir)
		if err != nil {
			return err
		}
		if end > cur {
			if err := writeTruncMarker(l.opt.Dir, end); err != nil {
				return err
			}
		}
	}
	var firstErr error
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.end <= end {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: removing covered segment: %w", err)
			}
			continue
		}
		keep = append(keep, s)
	}
	l.sealed = keep
	return firstErr
}

// NextOffset reports the offset the next appended frame will carry —
// the cumulative record count the log accounts for.
func (l *Log) NextOffset() int64 {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return l.next
}

// Stats reports log accounting.
type Stats struct {
	// Appends counts logged frames; Syncs counts fsyncs actually issued
	// (group commit can acknowledge several appends per fsync);
	// Rotations counts sealed segments.
	Appends, Syncs, Rotations int64
	// Segments is the number of on-disk segments (sealed + current).
	Segments int
	// NextOffset is the cumulative record count the log accounts for;
	// SyncedOffset is the prefix known to be on stable storage.
	NextOffset, SyncedOffset int64
}

// Stats returns a consistent snapshot of the log's accounting.
func (l *Log) Stats() Stats {
	l.writeMu.Lock()
	st := Stats{
		Appends:    l.appends.Load(),
		Syncs:      l.syncs.Load(),
		Rotations:  l.rotations.Load(),
		Segments:   len(l.sealed) + 1,
		NextOffset: l.next,
	}
	l.writeMu.Unlock()
	l.syncMu.Lock()
	st.SyncedOffset = l.synced
	l.syncMu.Unlock()
	return st
}

// Close stops the sync timer, flushes the tail to stable storage and
// closes the current segment. Idempotent.
func (l *Log) Close() error {
	l.writeMu.Lock()
	if l.closed {
		l.writeMu.Unlock()
		return nil
	}
	l.closed = true
	f, end := l.f, l.next
	l.writeMu.Unlock()
	if l.stopC != nil {
		close(l.stopC)
		<-l.doneC
	}
	err := l.syncTo(f, end)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
