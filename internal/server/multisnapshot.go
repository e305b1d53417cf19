package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// Snapshot format v2: one file framing every namespace of a Multi.
//
//	"MCOV2"                         magic (5 bytes)
//	uint32 count                    number of namespace frames
//	count × frame:
//	  uint32 len, name bytes        namespace name (UTF-8, validated)
//	  uint32 len, config JSON       the namespace's Config, in its own JSON encoding
//	  uint64 len, sketch blob       core.Sketch WriteTo bytes (format v1)
//
// All integers are little-endian, matching the sketch format. Each
// frame embeds an unmodified v1 sketch blob — the per-namespace payload
// is exactly what Engine.WriteSnapshot has always produced (merged
// sketch with the true ingested-edge total folded in) — so v2 is a
// container around v1, not a new sketch encoding. A v1 file (magic
// "SKCH1", core.SketchMagic) therefore stays loadable: covserved and
// streamcover's Hub restore such files into the default namespace.
const MultiSnapshotMagic = "MCOV2"

// Limits applied while parsing a v2 container, so a corrupt or
// truncated file fails with a decode error instead of a huge
// allocation.
const (
	maxConfigFrameBytes = 1 << 20
	maxSketchFrameBytes = 1 << 30
)

// WriteSnapshot merges every namespace and writes the v2 container.
// Namespaces are framed in sorted name order, so two Multis with equal
// state serialize to equal bytes. Each namespace's frame carries its
// Config, making the file self-describing: RestoreAll rebuilds every
// engine without the caller re-supplying parameters.
func (m *Multi) WriteSnapshot(w io.Writer) error {
	return m.writeSnapshotWith(w, (*Engine).Checkpoint)
}

// writeSnapshotWith writes the v2 container, obtaining each namespace's
// snapshot through snapFor: Engine.Checkpoint, which CheckpointMulti
// wraps to record each cut for WAL truncation.
func (m *Multi) writeSnapshotWith(w io.Writer, snapFor func(*Engine) (*Snapshot, error)) error {
	infos := m.List()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(MultiSnapshotMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(infos))); err != nil {
		return err
	}
	var blob bytes.Buffer
	for _, info := range infos {
		e, ok := m.Get(info.Name)
		if !ok { // deleted since List; skip would corrupt the count
			return fmt.Errorf("%w: %q (deleted during snapshot)", ErrNamespaceUnknown, info.Name)
		}
		snap, err := snapFor(e)
		blob.Reset()
		if err == nil {
			err = snap.WriteState(&blob)
		}
		if err != nil {
			return fmt.Errorf("server: snapshotting namespace %q: %w", info.Name, err)
		}
		cfgJSON, err := json.Marshal(&e.cfg)
		if err != nil {
			return err
		}
		if err := writeChunk32(bw, []byte(info.Name)); err != nil {
			return err
		}
		if err := writeChunk32(bw, cfgJSON); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(blob.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(blob.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreAll reads a v2 container and creates every framed namespace,
// seeding each engine with its persisted sketch and Config. It returns
// the number of namespaces restored. Restoring into a Multi that
// already holds one of the framed names fails with ErrNamespaceExists
// (namespaces created before the error stay).
func (m *Multi) RestoreAll(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(MultiSnapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("server: reading snapshot header: %w", err)
	}
	if string(magic) != MultiSnapshotMagic {
		return 0, fmt.Errorf("server: bad snapshot magic %q (want %q; single-sketch %q files restore via ReadRestore)",
			magic, MultiSnapshotMagic, core.SketchMagic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return 0, fmt.Errorf("server: reading snapshot count: %w", err)
	}
	restored := 0
	for i := uint32(0); i < count; i++ {
		name, err := readChunk32(br, maxNamespaceName)
		if err != nil {
			return restored, fmt.Errorf("server: reading namespace %d name: %w", i, err)
		}
		cfgJSON, err := readChunk32(br, maxConfigFrameBytes)
		if err != nil {
			return restored, fmt.Errorf("server: reading namespace %q config: %w", name, err)
		}
		var cfg Config
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
			return restored, fmt.Errorf("server: decoding namespace %q config: %w", name, err)
		}
		var blobLen uint64
		if err := binary.Read(br, binary.LittleEndian, &blobLen); err != nil {
			return restored, fmt.Errorf("server: reading namespace %q sketch size: %w", name, err)
		}
		if blobLen > maxSketchFrameBytes {
			return restored, fmt.Errorf("server: namespace %q sketch frame of %d bytes exceeds limit", name, blobLen)
		}
		// The sketch decoder buffers its own reads, so hand it an exact
		// in-memory frame rather than the shared reader: it must not
		// consume bytes belonging to the next namespace. CopyN (rather
		// than one make of the declared size) grows the buffer only as
		// bytes actually arrive, so a lying length field in a truncated
		// file fails early instead of pre-allocating the full claim.
		var blob bytes.Buffer
		if _, err := io.CopyN(&blob, br, int64(blobLen)); err != nil {
			return restored, fmt.Errorf("server: reading namespace %q sketch: %w", name, err)
		}
		// The frame's config decides the blob format: weighted namespaces
		// persist a class bank, unweighted ones a v1 sketch. ReadRestore
		// fills the matching Config restore field.
		cfg, err = ReadRestore(cfg, bytes.NewReader(blob.Bytes()))
		if err != nil {
			return restored, fmt.Errorf("server: decoding namespace %q state: %w", name, err)
		}
		if _, err := m.Create(string(name), cfg); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}

func writeChunk32(w io.Writer, b []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readChunk32(r io.Reader, limit int) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) > limit {
		return nil, fmt.Errorf("chunk of %d bytes exceeds limit %d", n, limit)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
