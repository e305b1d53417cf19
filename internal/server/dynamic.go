package server

// The dynamic engine mode: insert/delete (turnstile) streams served by
// the leveled L0 edge sampler of internal/l0 (see sampler.go there for
// the structure; DESIGN.md §14 for the contract). The sampler is linear
// in the op stream, so every lifecycle verb the mode plane needs is
// cell-wise arithmetic: shard states merge into exactly the sampler of
// the concatenated streams, cuts are plain copies, and serialization
// is a deterministic function of the net op multiset — the property the
// crash-recovery and cluster suites pin bit-for-bit.
//
// A snapshot answers from the sketch's view of that multiset: the merge
// cuts the level it decodes, a priority prefix of the live elements, with
// the sketch's rule into a *core.View (DESIGN.md §14).
//
// A refresh copies each shard's cells once and nothing twice. A shard
// answers a freeze request with a dynamicCut: its cells copied into an
// array from the mode's free list. The cut belongs to the one merge it
// was taken for; MergeStates adopts the first cut's array as the merged
// state, adds the others into it, hands them back to the free list and
// peels and cuts the sum. The merged state is then published, and from
// there on the rule is flat: an array that reached a Snapshot is never written
// and never recycled — snapshot readers (WriteState, the cluster fold) may hold a
// superseded snapshot for as long as they like, so the GC collects it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/l0"
)

// DynamicParams derives the L0 sampler geometry from the config: the
// per-level cell count tracks the Algorithm 3 edge budget (two cells
// per budgeted edge — a level decodes while it holds about Cells/2
// distinct edges), capped so the Levels×Cells cell matrix stays a
// bounded multiple of the sketch's footprint. Exported for the cluster
// layer, which must build samplers with exactly the local geometry.
func (c Config) DynamicParams() l0.SamplerParams {
	cells := 2 * c.Params().EffectiveEdgeBudget()
	if cells > maxDynamicCells {
		cells = maxDynamicCells
	}
	if cells < minDynamicCells {
		cells = minDynamicCells
	}
	return l0.SamplerParams{Levels: dynamicLevels, Cells: cells, Seed: c.Seed}.Normalize()
}

const (
	// dynamicLevels geometric levels decode streams of up to about
	// Cells/2 · 2^(Levels−1) distinct edges — far past any stream the
	// budget-driven cell count is provisioned for.
	dynamicLevels   = 16
	minDynamicCells = 96
	maxDynamicCells = 1 << 14
)

// dynamicState is the per-shard (and merged-snapshot) state of the
// dynamic mode: the sampler plus op accounting.
type dynamicState struct {
	sam *l0.Sampler
	// free is the mode's free list of cut arrays (shard states only).
	free *sync.Pool
	// opsSeen counts ops applied (the EdgesSeen analog — deletes
	// included, matching the engine's op-counted offsets).
	opsSeen int64
	// deletes counts delete ops applied.
	deletes int64

	// view is the sketch's cut of the level the L0 peel MergeStates ends
	// with decoded: set on merged states only, immutable afterwards.
	view *core.View
}

// AddEdges applies a batch of records, a delete as a −1 update.
func (d *dynamicState) AddEdges(recs []bipartite.Edge) {
	for _, r := range recs {
		delta := int64(1)
		if bipartite.IsDelete(r) {
			delta = -1
			d.deletes++
		}
		d.sam.Update(r.Set&^bipartite.OpDeleteBit, r.Elem, delta)
	}
	d.opsSeen += int64(len(recs))
}

func (d *dynamicState) appliesDeletes() {}

// dynamicCut is a shard's answer to a freeze request: the shard's cells
// at the cut, in an array that belongs to exactly one MergeStates call,
// which consumes it (the array becomes the merged state or returns to the
// free list, and sam is cleared). A distinct type so that the merge can
// tell an input it owns from a published or decoded state it may only
// read.
type dynamicCut struct{ dynamicState }

// Freeze ignores the published state: a delete can move the recovered
// sample's cut back up, so nothing the last merge excluded may be shed.
// The copy lands in a recycled array when the free list has one.
func (d *dynamicState) Freeze(FrozenState) FrozenState {
	cut := &dynamicCut{dynamicState{opsSeen: d.opsSeen, deletes: d.deletes}}
	if sam, ok := d.free.Get().(*l0.Sampler); ok && d.sam.CopyTo(sam) == nil {
		cut.sam = sam
	} else {
		cut.sam = d.sam.Clone()
	}
	return cut
}

func (d *dynamicState) MergeFrom(other FrozenState) error {
	o, ok := other.(*dynamicState)
	if !ok {
		return fmt.Errorf("server: cannot merge %T state into a dynamic engine", other)
	}
	if err := d.sam.Merge(o.sam); err != nil {
		return err
	}
	// The consumed-op counter is left untouched per the ShardState
	// contract (the coordinator pins true totals); the delete counter is
	// content accounting and folds in.
	d.deletes += o.deletes
	return nil
}

func (d *dynamicState) Stats() core.Stats {
	st := core.Stats{
		EdgesSeen: d.opsSeen,
		Budget:    d.sam.Params().Cells,
		Bytes:     int64(d.sam.Bytes()),
	}
	if d.view != nil {
		vs := d.view.Stats()
		st.EdgesKept, st.ElementsKept, st.PStar = vs.EdgesKept, vs.ElementsKept, vs.PStar
	}
	return st
}

// dynMagic frames the dynamic state: op counters, then the sampler's
// own self-checksummed bytes. dynMagicV1's sampler used retired level and
// row hashes, so it is refused by name.
const dynMagic, dynMagicV1 = "L0DYNS2\n", "L0DYNS1\n"

func (d *dynamicState) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 0, len(dynMagic)+20)
	hdr = append(hdr, dynMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.opsSeen))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.deletes))
	crc := crc32.Checksum(hdr[len(dynMagic):], dynCRCTable)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc)
	n, err := w.Write(hdr)
	if err != nil {
		return int64(n), err
	}
	sn, err := d.sam.WriteTo(w)
	return int64(n) + sn, err
}

var dynCRCTable = crc32.MakeTable(crc32.Castagnoli)

// dynamicMode implements Mode for ModeDynamic.
type dynamicMode struct {
	sketch core.Params // Config.Params: what the decoded level is cut with
	params l0.SamplerParams
	// free recycles the cell arrays of shard cuts (*l0.Sampler of params)
	// between refreshes: Freeze takes, MergeStates gives back. A sync.Pool,
	// so a namespace that stops refreshing pins nothing past two GC cycles.
	free *sync.Pool
}

func (m dynamicMode) Name() ModeName { return ModeDynamic }

func (m dynamicMode) NewShardState() (ShardState, error) {
	return &dynamicState{sam: l0.NewSampler(m.params), free: m.free}, nil
}

// MergeStates sums the inputs cell-wise. A *dynamicCut is consumed: the
// first one's array becomes the sum, later ones are added into it and
// recycled. Any other input (a published local state, a decoded peer
// state) is only read; when it comes first the sum starts as its copy.
// After a failure the loop goes on only to consume the remaining cuts, so
// every cut's array is recycled exactly once either way.
//
// The merge ends with the L0 peel of the sum and the sketch's cut of the
// level it decodes; when no level decodes, the merge fails (a refresh
// error) and the sum is recycled too.
func (m dynamicMode) MergeStates(states []FrozenState, edges int64) (FrozenState, error) {
	merged := &dynamicState{opsSeen: edges}
	var err error
	add := func(sam *l0.Sampler, owned bool) {
		switch {
		case sam.Params() != m.params:
			if err == nil {
				err = fmt.Errorf("server: cannot merge a sampler of %+v into a dynamic engine of %+v", sam.Params(), m.params)
			}
			return // not an array of this mode's geometry: not recycled either
		case err != nil:
		case merged.sam == nil && owned:
			merged.sam = sam
			return
		case merged.sam == nil:
			merged.sam = sam.Clone()
		default:
			err = merged.sam.Merge(sam)
		}
		if owned {
			m.free.Put(sam)
		}
	}
	for _, st := range states {
		switch in := st.(type) {
		case *dynamicCut:
			if in.sam == nil {
				if err == nil {
					err = fmt.Errorf("server: a dynamic shard cut was handed to a second merge")
				}
				continue
			}
			add(in.sam, true)
			in.sam = nil
			merged.deletes += in.deletes
		case *dynamicState:
			add(in.sam, false)
			merged.deletes += in.deletes
		default:
			if err == nil {
				err = fmt.Errorf("server: cannot merge %T state into a dynamic engine", st)
			}
		}
	}
	if err == nil {
		if merged.sam == nil {
			merged.sam = l0.NewSampler(m.params)
		}
		merged.view, err = m.cut(merged.sam, edges)
	}
	if err != nil {
		if merged.sam != nil {
			m.free.Put(merged.sam) // adopted, cloned or new above: private either way
		}
		return nil, err
	}
	return merged, nil
}

func (m dynamicMode) ReadState(r io.Reader) (FrozenState, error) {
	hdr := make([]byte, len(dynMagic)+20)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("decoding dynamic state header: %w", err)
	}
	if string(hdr[:len(dynMagic)]) == dynMagicV1 {
		return nil, fmt.Errorf("decoding dynamic state: %q is the v1 layout, whose sampler used retired level and row hashes; this version reads %q", dynMagicV1, dynMagic)
	}
	if string(hdr[:len(dynMagic)]) != dynMagic {
		return nil, fmt.Errorf("decoding dynamic state: bad magic %q", hdr[:len(dynMagic)])
	}
	body := hdr[len(dynMagic):]
	if got, want := binary.LittleEndian.Uint32(body[16:20]), crc32.Checksum(body[:16], dynCRCTable); got != want {
		return nil, fmt.Errorf("decoding dynamic state: header checksum mismatch (got %08x want %08x)", got, want)
	}
	// Every writer counts a delete as an op, so 0 ≤ deletes ≤ opsSeen on
	// anything a shard cut, a merge or a restore can produce.
	d := &dynamicState{
		opsSeen: int64(binary.LittleEndian.Uint64(body[0:8])),
		deletes: int64(binary.LittleEndian.Uint64(body[8:16])),
	}
	if d.deletes < 0 || d.deletes > d.opsSeen {
		return nil, fmt.Errorf("decoding dynamic state: %d deletes among %d ops", d.deletes, d.opsSeen)
	}
	// The decoder checks the blob's geometry against the mode's before it
	// allocates: a foreign header cannot cost more than a local state.
	var err error
	if d.sam, err = l0.ReadSampler(r, m.params); err != nil {
		return nil, err
	}
	return d, nil
}

func (m dynamicMode) Materialize(st FrozenState) (*materialized, error) {
	d, ok := st.(*dynamicState)
	if !ok || d.view == nil {
		return nil, fmt.Errorf("server: cannot materialize %T state on a dynamic engine (only a merged state holds a view)", st)
	}
	return sketchMode{m.sketch}.Materialize(d.view)
}

// cut recovers the shallowest level ℓ of sam that decodes and returns the
// H≤n sketch of its edges with the bar lowered to the level's bound
// 2^(64−ℓ), so p* = min(sketch bar, 2^−ℓ). The level holds every live
// element below that bound, so this is the sketch of the net edge set cut
// there. edges is the op total the view reports.
func (m dynamicMode) cut(sam *l0.Sampler, edges int64) (*core.View, error) {
	rec, err := sam.Recover()
	if err != nil {
		return nil, fmt.Errorf("server: dynamic engine: %w", err)
	}
	sk, err := core.NewSketch(m.sketch)
	if err != nil {
		return nil, err
	}
	sk.AddEdges(rec.Edges)
	if rec.Level > 0 {
		sk.LowerBar(1<<(64-rec.Level), 0)
	}
	sk.SetEdgesSeen(edges)
	return sk.Freeze(), nil
}
