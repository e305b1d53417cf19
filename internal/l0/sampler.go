package l0

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/hashing"
)

// This file implements the turnstile-stream edge sampler behind the
// "dynamic" engine mode, after Chakrabarti–McGregor–Wirth: maximum
// coverage under insert/delete streams reduces to ℓ0-sampling the edge
// multiset at geometrically decreasing rates. Levels subsample by the
// sketch priority (core.Params.Priority under the sampler's seed): level
// ℓ keeps the elements of priority below 2^(64−ℓ), so the recovered edge
// set at a level is the exact incidence list of a priority prefix of the
// elements, which the engine cuts with the sketch's rule (Definition
// 2.1). Each level stores the surviving edges in an invertible
// (IBLT-style) cell array; deletions subtract exactly what insertions
// added, so a fully cancelled stream leaves all-zero cells and level 0
// decodes to the empty graph.
//
// The structure is linear in the update stream: every verb the engine
// needs (Merge across shards, Clone/CopyTo for refresh cuts, byte
// serialization) is cell-wise arithmetic, making the recovered sample —
// and therefore the published answer — a deterministic function of the
// net op multiset, independent of shard count, batch boundaries, or op
// order.
//
// A floor f drops the levels below it for good, for a caller that will
// never decode there again: the sampler holds cells for levels
// f…Levels−1 only, every verb skips the rest, and the floor only rises
// (RaiseFloor). An element of priority above FloorBar(f) sits on no kept
// level, so its ops may be dropped before they reach the sampler. Two
// samplers of different floors merge at the larger one.
//
// The fingerprint and row hashes are hashing.Mix2(seed word, x) =
// SplitMix64(SplitMix64(seed word) ^ (x + γ)). The inner round depends on
// the sampler's seed alone, so deriveSeeds evaluates it once per seed
// word (fpMix, rowMix) and an op pays only the outer rounds, over one
// shared x + γ; a row hash picks its cell by multiply-shift. elemLevel,
// fp and rowPos define the hashes; the purity test and the peel go
// through them, and Update inlines rowPos.

// SamplerParams sizes a Sampler. Two samplers interoperate (Merge,
// state restore) only when all three fields match.
type SamplerParams struct {
	// Levels is the number of geometric subsampling levels; level ℓ
	// samples elements with probability 2^−ℓ.
	Levels int
	// Cells is the number of IBLT cells per level (a multiple of 3 —
	// the decoder uses three partitioned hash rows). A level decodes
	// reliably while it holds at most about Cells/2 distinct edges.
	Cells int
	// Seed drives every hash function in the structure.
	Seed uint64
}

const (
	maxLevels       = 48
	maxCellsTotal   = 1 << 24 // read-side allocation cap (512 MiB of cells)
	samplerMagic    = "L0SAMP3\n"
	samplerMagicV2  = "L0SAMP2\n" // no floor field: read as floor 0
	samplerRowCount = 3

	fpSalt  = 0xc2b2ae3d27d4eb4f
	rowSalt = 0x165667b19e3779f9
)

// Normalize clamps the parameters into their legal ranges, rounding
// Cells up to a multiple of the row count.
func (p SamplerParams) Normalize() SamplerParams {
	if p.Levels < 1 {
		p.Levels = 1
	}
	if p.Levels > maxLevels {
		p.Levels = maxLevels
	}
	if p.Cells < 2*samplerRowCount {
		p.Cells = 2 * samplerRowCount
	}
	if r := p.Cells % samplerRowCount; r != 0 {
		p.Cells += samplerRowCount - r
	}
	return p
}

func (p SamplerParams) validate() error {
	if p.Levels < 1 || p.Levels > maxLevels {
		return fmt.Errorf("l0: levels %d out of range [1,%d]", p.Levels, maxLevels)
	}
	if p.Cells < 2*samplerRowCount || p.Cells%samplerRowCount != 0 {
		return fmt.Errorf("l0: cells %d must be a positive multiple of %d", p.Cells, samplerRowCount)
	}
	if p.Levels*p.Cells > maxCellsTotal {
		return fmt.Errorf("l0: levels*cells %d exceeds cap %d", p.Levels*p.Cells, maxCellsTotal)
	}
	return nil
}

// cell is one IBLT bucket: the count, 128-bit key sum and fingerprint
// sum of every edge currently hashed into it. The 128-bit key sum makes
// multiplicity-m decoding an exact integer division (a 64-bit sum would
// wrap and require modular inverses).
type cell struct {
	count int64
	keyLo uint64
	keyHi uint64
	fpSum uint64
}

func (c *cell) zero() bool {
	return c.count == 0 && c.keyLo == 0 && c.keyHi == 0 && c.fpSum == 0
}

// Sampler is a leveled invertible sketch over edges, supporting
// inserts, deletes, merge, clone and deterministic serialization.
// It is not safe for concurrent mutation.
type Sampler struct {
	p SamplerParams
	// prio places elements on levels; fpMix and rowMix[level][row] are
	// the seed-only inner rounds of the fingerprint and row hashes.
	prio   core.Priority
	fpMix  uint64
	rowMix [][samplerRowCount]uint64
	// floor is the shallowest level held; cells holds the Levels − floor
	// consecutive blocks of p.Cells cells of levels floor…Levels−1.
	floor int
	cells []cell
}

// NewSampler builds an empty sampler; params are normalized first.
func NewSampler(params SamplerParams) *Sampler {
	p := params.Normalize()
	s := &Sampler{p: p, cells: make([]cell, p.Levels*p.Cells)}
	s.deriveSeeds()
	return s
}

func (s *Sampler) deriveSeeds() {
	s.prio = core.Params{Seed: s.p.Seed}.Priority()
	s.fpMix = hashing.SplitMix64(hashing.Mix2(s.p.Seed, fpSalt))
	s.rowMix = make([][samplerRowCount]uint64, s.p.Levels)
	for r := 0; r < samplerRowCount; r++ {
		rowSeed := hashing.Mix2(s.p.Seed, rowSalt+uint64(r))
		for l := range s.rowMix {
			s.rowMix[l][r] = hashing.SplitMix64(rowSeed + uint64(l)*0x9e37)
		}
	}
}

// Params returns the sampler's (normalized) parameters.
func (s *Sampler) Params() SamplerParams { return s.p }

// Floor returns the shallowest level the sampler holds.
func (s *Sampler) Floor() int { return s.floor }

// FloorBar is the largest element priority a sampler of floor f keeps
// ops of: an element of priority h sits on levels up to lz(h), so it
// touches a level ≥ f exactly when h ≤ 2^(64−f) − 1. MaxUint64 at floor 0.
func FloorBar(f int) uint64 { return ^uint64(0) >> f }

// RaiseFloor drops the levels below f (a no-op when f is not above the
// floor; f is clamped to Levels−1). The kept levels are resliced, not
// copied, so their array stays as large as it was: a sampler that lives
// on after the raise releases the rest by cloning itself.
func (s *Sampler) RaiseFloor(f int) {
	f = min(f, s.p.Levels-1)
	if f <= s.floor {
		return
	}
	s.cells = s.cells[(f-s.floor)*s.p.Cells:]
	s.floor = f
}

// level returns the cells of level l ≥ floor.
func (s *Sampler) level(l int) []cell {
	at := (l - s.floor) * s.p.Cells
	return s.cells[at : at+s.p.Cells]
}

// Bytes returns the allocated cell-array footprint.
func (s *Sampler) Bytes() int { return len(s.cells) * 32 }

// NonZeroCells counts cells with any live content — the serialized
// (sparse) state size is proportional to it.
func (s *Sampler) NonZeroCells() int {
	n := 0
	for i := range s.cells {
		if !s.cells[i].zero() {
			n++
		}
	}
	return n
}

func edgeKey(set, elem uint32) uint64 { return uint64(set)<<32 | uint64(elem) }

// mixGamma is the increment Mix2 adds to its second word before the
// outer round; premixed(SplitMix64(a), x+mixGamma) == hashing.Mix2(a, x).
const mixGamma = 0x9e3779b97f4a7c15

func premixed(mix, xg uint64) uint64 { return hashing.SplitMix64(mix ^ xg) }

// elemLevel returns the deepest level the element participates in:
// the number of leading zero bits of its sketch priority, capped at
// Levels−1, so level ℓ holds the elements of priority below 2^(64−ℓ).
func (s *Sampler) elemLevel(elem uint32) int {
	return min(bits.LeadingZeros64(s.prio.Of(elem)|1), s.p.Levels-1)
}

func (s *Sampler) fp(key uint64) uint64 { return premixed(s.fpMix, key+mixGamma) }

// rowPos returns the in-level cell index for (level, row, key). Rows
// partition the level's cells into three disjoint ranges, so a key's
// three cells are always distinct.
func (s *Sampler) rowPos(level, row int, key uint64) int {
	w := s.p.Cells / samplerRowCount
	cell, _ := bits.Mul64(premixed(s.rowMix[level][row], key+mixGamma), uint64(w))
	return row*w + int(cell)
}

// Update applies one op: delta must be +1 (insert) or −1 (delete).
func (s *Sampler) Update(set, elem uint32, delta int64) {
	key := edgeKey(set, elem)
	kg := key + mixGamma
	// A delete adds the 128-bit and 64-bit two's complements of what the
	// insert added, so one wrapping add serves both directions.
	addLo, addHi, addFp := key, uint64(0), premixed(s.fpMix, kg)
	if delta < 0 {
		addLo, addFp = -addLo, -addFp
		if key != 0 {
			addHi = ^uint64(0)
		}
	}
	w := uint64(s.p.Cells / samplerRowCount)
	for l, top := s.floor, s.elemLevel(elem); l <= top; l++ {
		level := s.level(l)
		mix := &s.rowMix[l]
		for r := uint64(0); r < samplerRowCount; r++ {
			pos, _ := bits.Mul64(premixed(mix[r], kg), w)
			c := &level[r*w+pos]
			c.count += delta
			var carry uint64
			c.keyLo, carry = bits.Add64(c.keyLo, addLo, 0)
			c.keyHi += addHi + carry
			c.fpSum += addFp
		}
	}
}

// Apply consumes a batch of ops.
func (s *Sampler) Apply(ops []bipartite.Op) {
	for i := range ops {
		delta := int64(1)
		if ops[i].Kind == bipartite.OpDelete {
			delta = -1
		}
		s.Update(ops[i].Edge.Set, ops[i].Edge.Elem, delta)
	}
}

// AddEdges inserts a batch of edges.
func (s *Sampler) AddEdges(edges []bipartite.Edge) {
	for i := range edges {
		s.Update(edges[i].Set, edges[i].Elem, 1)
	}
}

// Merge folds other into s cell-wise; the samplers must share params.
// Because the structure is linear, merging shard-local samplers yields
// exactly the sampler of the concatenated op streams, at the larger of
// the two floors: s raises its floor to other's first, and other's levels
// below s's are skipped.
func (s *Sampler) Merge(other *Sampler) error {
	if other.p != s.p {
		return fmt.Errorf("l0: cannot merge samplers with different params (%+v vs %+v)", s.p, other.p)
	}
	s.RaiseFloor(other.floor)
	from := other.cells[(s.floor-other.floor)*s.p.Cells:]
	for i := range s.cells {
		a, b := &s.cells[i], &from[i]
		a.count += b.count
		var carry uint64
		a.keyLo, carry = bits.Add64(a.keyLo, b.keyLo, 0)
		a.keyHi += b.keyHi + carry
		a.fpSum += b.fpSum
	}
	return nil
}

// Clone returns an independent deep copy.
func (s *Sampler) Clone() *Sampler {
	c := *s
	c.cells = slices.Clone(s.cells)
	return &c
}

// CopyTo overwrites dst's cells with s's — Clone into an array that
// already exists (a recycled refresh cut). The samplers must share params
// and hold the same levels: a dst of another floor is refused, so an array
// recycled from below a floor that has since risen is not reused.
func (s *Sampler) CopyTo(dst *Sampler) error {
	if dst.p != s.p || len(dst.cells) != len(s.cells) {
		return fmt.Errorf("l0: cannot copy into a sampler with different params or levels (%+v floor %d vs %+v floor %d)", s.p, s.floor, dst.p, dst.floor)
	}
	dst.floor = s.floor
	copy(dst.cells, s.cells)
	return nil
}

// ErrNoDecode reports that no level of the sampler peeled completely —
// the stream is too dense for the configured cells, or (for invalid
// streams that delete edges never inserted) no consistent sample
// exists.
var ErrNoDecode = errors.New("l0: sampler recovery failed at every level")

// RecoverResult is a decoded sample: the distinct surviving edges at
// the shallowest decodable level, and that level.
type RecoverResult struct {
	// Edges lists the distinct edges of the level's sample, sorted by
	// (Set, Elem) — deterministic for a given cell state.
	Edges []bipartite.Edge
	// Level is the decoded level: it holds the elements of priority below
	// 2^(64−Level), each with probability 2^−Level.
	Level int
}

// Recover peels the levels shallowest-first, from the floor, and returns
// the first one that decodes completely. Level 0 holds everything, so on
// streams small enough to fit it the result is the exact live edge set —
// in particular a fully cancelled stream decodes at the floor to no edges.
// The sampler is only read.
func (s *Sampler) Recover() (RecoverResult, error) {
	var scratch peelScratch
	for l := s.floor; l < s.p.Levels; l++ {
		if !s.peelLevel(l, &scratch) {
			continue
		}
		// Distinct keys only: a ghost decode could in principle repeat a
		// key. Ascending set<<32|elem is (Set, Elem) order.
		slices.Sort(scratch.keys)
		keys := slices.Compact(scratch.keys)
		edges := make([]bipartite.Edge, len(keys))
		for i, k := range keys {
			edges[i] = bipartite.Edge{Set: uint32(k >> 32), Elem: uint32(k)}
		}
		return RecoverResult{Edges: edges, Level: l}, nil
	}
	return RecoverResult{}, ErrNoDecode
}

// peelScratch is what one Recover shares between its levels: the working
// copy of a level, the decoded keys, and two position bitmaps — the cells
// still to test in the current sweep and those to test in the next.
type peelScratch struct {
	work      []cell
	keys      []uint64
	cur, next []uint64
}

// pure reports whether c, the cell at in-level position pos of level,
// holds m ≥ 1 copies of one key and nothing else: the sums divide out to
// a key whose fingerprint, level and row position all agree. A pure
// function of the cell's content, so a cell that failed it fails it again
// until something is written there.
func (s *Sampler) pure(c *cell, level, pos int) (key, m uint64, ok bool) {
	if c.count <= 0 {
		return 0, 0, false
	}
	m = uint64(c.count)
	if c.keyHi >= m {
		return 0, 0, false // key sum can't be m·key for any 64-bit key
	}
	key, rem := bits.Div64(c.keyHi, c.keyLo, m)
	if rem != 0 || c.fpSum != m*s.fp(key) {
		return 0, 0, false
	}
	if s.elemLevel(uint32(key)) < level {
		return 0, 0, false // decoded key doesn't belong at this level
	}
	if s.rowPos(level, pos/(s.p.Cells/samplerRowCount), key) != pos {
		return 0, 0, false // decoded key doesn't hash to this cell
	}
	return key, m, true
}

// peelLevel runs IBLT peeling over one level and reports whether it
// decoded completely, leaving the decoded keys (unsorted, possibly
// repeated) in sc.keys. Sweeps visit cells in ascending position and peel
// every pure cell they meet, as long as a sweep makes progress. The first
// sweep reads the level in place up to its first pure cell — an
// overloaded level usually has none, and is then refused (or, all zero,
// accepted as empty) without being copied. From there on a cell is tested
// again only after a peel wrote to it: later in the same sweep when it
// lies above the cursor, in the next sweep when below. Skipping the
// unwritten cells skips tests whose outcome is known, so the decode
// sequence is that of sweeping every cell every time.
func (s *Sampler) peelLevel(level int, sc *peelScratch) bool {
	cells := s.level(level)
	first, empty := -1, true
	for pos := range cells {
		c := &cells[pos]
		if c.zero() {
			continue
		}
		empty = false
		if _, _, ok := s.pure(c, level, pos); ok {
			first = pos
			break
		}
	}
	sc.keys = sc.keys[:0]
	if first < 0 {
		return empty
	}

	if sc.work == nil {
		words := (len(cells) + 63) / 64
		sc.work = make([]cell, len(cells))
		sc.cur, sc.next = make([]uint64, words), make([]uint64, words)
	}
	work, cur, next := sc.work, sc.cur, sc.next
	copy(work, cells)
	clear(next)
	// First sweep: every position from the first pure cell on.
	clear(cur[:first/64])
	for i := first / 64; i < len(cur); i++ {
		cur[i] = ^uint64(0)
	}
	cur[first/64] &^= 1<<(first%64) - 1
	if tail := len(work) % 64; tail != 0 {
		cur[len(cur)-1] &= 1<<tail - 1
	}
	// A peeled cell is zero and is only subtracted from afterwards, so no
	// cell is pure twice and no state, garbage included, has more than
	// Cells productive sweeps; Cells+8 is that bound with room to spare.
	for sweep := 0; sweep < s.p.Cells+8; sweep++ {
		progress := false
		for wi := range cur {
			for cur[wi] != 0 {
				bit := bits.TrailingZeros64(cur[wi])
				cur[wi] &^= 1 << bit
				pos := wi*64 + bit
				key, m, ok := s.pure(&work[pos], level, pos)
				if !ok {
					continue
				}
				// Pure cell: remove m copies of key from its three cells
				// (which zeroes this one).
				mhi, mlo := bits.Mul64(m, key)
				mfp := m * s.fp(key)
				for r := 0; r < samplerRowCount; r++ {
					at := s.rowPos(level, r, key)
					t := &work[at]
					t.count -= int64(m)
					var borrow uint64
					t.keyLo, borrow = bits.Sub64(t.keyLo, mlo, 0)
					t.keyHi -= mhi + borrow
					t.fpSum -= mfp
					if at > pos {
						cur[at/64] |= 1 << (at % 64)
					} else if at < pos {
						next[at/64] |= 1 << (at % 64)
					}
				}
				sc.keys = append(sc.keys, key)
				progress = true
			}
		}
		if !progress {
			break
		}
		cur, next = next, cur // cur was emptied by the sweep
	}
	for i := range work {
		if !work[i].zero() {
			return false
		}
	}
	return true
}

// ErrCorruptSampler reports an undecodable serialized sampler state.
var ErrCorruptSampler = errors.New("l0: corrupt sampler state")

// ErrParamsMismatch reports a well-formed serialized sampler built with
// other parameters than the reader runs (a peer or snapshot file written
// under different options).
var ErrParamsMismatch = errors.New("l0: sampler parameter mismatch")

// samplerEntryLen is one serialized non-zero cell: index, count, key sum
// (lo, hi), fingerprint sum. samplerHeaderLen is the v3 header: levels,
// cells, seed, floor, non-zero cell count (v2 has no floor).
const (
	samplerEntryLen  = 4 + 4*8
	samplerHeaderLen = 4 + 4 + 8 + 4 + 8
)

// WriteTo serializes the sampler deterministically: a fixed header, the
// non-zero cells of the levels it holds in ascending index order (an index
// counts from level 0, whatever the floor), and a CRC. Equal cell states
// at equal floors — and by linearity, equal net op multisets — produce
// byte-identical output regardless of how the state was assembled.
func (s *Sampler) WriteTo(wr io.Writer) (int64, error) {
	nnz := s.NonZeroCells()
	buf := make([]byte, 0, len(samplerMagic)+samplerHeaderLen+nnz*samplerEntryLen+4)
	buf = append(buf, samplerMagic...)
	payload := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.p.Levels))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.p.Cells))
	buf = binary.LittleEndian.AppendUint64(buf, s.p.Seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.floor))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nnz))
	base := s.floor * s.p.Cells
	for i := range s.cells {
		c := &s.cells[i]
		if c.zero() {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(base+i))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.count))
		buf = binary.LittleEndian.AppendUint64(buf, c.keyLo)
		buf = binary.LittleEndian.AppendUint64(buf, c.keyHi)
		buf = binary.LittleEndian.AppendUint64(buf, c.fpSum)
	}
	crc := crc32.Checksum(buf[payload:], crcTable)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	n, err := wr.Write(buf)
	return int64(n), err
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ReadSampler decodes a sampler serialized by WriteTo that must have been
// built with want (normalized parameters — the geometry the caller is
// about to merge the result with). A v2 blob (L0SAMP2, no floor field)
// decodes at floor 0. Corruption yields a typed error (wrapping
// ErrCorruptSampler), never a panic. Nothing is allocated before the
// header has been checked against want and, when rd knows its remaining
// length (bytes.Reader, bytes.Buffer), against the bytes that are left —
// so a blob costs at most the geometry the caller already runs, whatever
// its header claims.
func ReadSampler(rd io.Reader, want SamplerParams) (*Sampler, error) {
	var magic [len(samplerMagic)]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorruptSampler, err)
	}
	hdrLen := samplerHeaderLen
	switch string(magic[:]) {
	case samplerMagic:
	case samplerMagicV2:
		hdrLen -= 4
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSampler, magic[:])
	}
	var hdrBuf [samplerHeaderLen]byte
	hdr := hdrBuf[:hdrLen]
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorruptSampler, err)
	}
	crc := crc32.Checksum(hdr, crcTable)
	p := SamplerParams{
		Levels: int(binary.LittleEndian.Uint32(hdr[0:4])),
		Cells:  int(binary.LittleEndian.Uint32(hdr[4:8])),
		Seed:   binary.LittleEndian.Uint64(hdr[8:16]),
	}
	floor, rest := uint32(0), hdr[16:]
	if hdrLen == samplerHeaderLen {
		floor, rest = binary.LittleEndian.Uint32(rest[0:4]), rest[4:]
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSampler, err)
	}
	if p != want {
		return nil, fmt.Errorf("%w: built with %+v, expected %+v", ErrParamsMismatch, p, want)
	}
	if floor >= uint32(p.Levels) {
		return nil, fmt.Errorf("%w: floor %d beyond %d levels", ErrCorruptSampler, floor, p.Levels)
	}
	held := (p.Levels - int(floor)) * p.Cells
	nnz := binary.LittleEndian.Uint64(rest)
	if nnz > uint64(held) {
		return nil, fmt.Errorf("%w: %d non-zero cells exceed capacity %d", ErrCorruptSampler, nnz, held)
	}
	if l, ok := rd.(interface{ Len() int }); ok && nnz*samplerEntryLen+4 > uint64(l.Len()) {
		return nil, fmt.Errorf("%w: %d non-zero cells announced, %d bytes left", ErrCorruptSampler, nnz, l.Len())
	}
	s := &Sampler{p: p, floor: int(floor), cells: make([]cell, held)}
	s.deriveSeeds()
	var ent [samplerEntryLen]byte
	base, prev := s.floor*p.Cells, -1
	for i := uint64(0); i < nnz; i++ {
		if _, err := io.ReadFull(rd, ent[:]); err != nil {
			return nil, fmt.Errorf("%w: reading cell %d: %v", ErrCorruptSampler, i, err)
		}
		crc = crc32.Update(crc, crcTable, ent[:])
		idx := int(binary.LittleEndian.Uint32(ent[0:4])) - base
		if idx <= prev || idx >= len(s.cells) {
			return nil, fmt.Errorf("%w: cell index %d out of order or range", ErrCorruptSampler, idx+base)
		}
		prev = idx
		s.cells[idx] = cell{
			count: int64(binary.LittleEndian.Uint64(ent[4:12])),
			keyLo: binary.LittleEndian.Uint64(ent[12:20]),
			keyHi: binary.LittleEndian.Uint64(ent[20:28]),
			fpSum: binary.LittleEndian.Uint64(ent[28:36]),
		}
	}
	var tail [4]byte
	if _, err := io.ReadFull(rd, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum: %v", ErrCorruptSampler, err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorruptSampler, got, crc)
	}
	return s, nil
}
