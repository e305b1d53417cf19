package l0

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/hashing"
)

// refSampler is the sampler as it stood before the hash rounds were
// premixed and the peel learned to skip unwritten cells: its Update,
// Recover and peelLevel are that commit's code verbatim (receiver type and
// the refRounds counter aside), and so is its fingerprint hash. Its level
// and row-position hashes are the v2 layout's definitions — the level is
// the leading zeros of the sketch priority, the row cell a multiply-shift
// of the row hash — where that commit had a salted Mix2 level hash and a
// "% w". The tests below hold the production sampler to it cell for cell
// and decode for decode.
type refSampler struct {
	p        SamplerParams
	prio     core.Priority
	fpSeed   uint64
	rowSeeds [samplerRowCount]uint64
	cells    []cell
}

func newRefSampler(p SamplerParams) *refSampler {
	s := &refSampler{p: p, cells: make([]cell, p.Levels*p.Cells)}
	s.prio = core.Params{Seed: s.p.Seed}.Priority()
	s.fpSeed = hashing.Mix2(s.p.Seed, fpSalt)
	for r := 0; r < samplerRowCount; r++ {
		s.rowSeeds[r] = hashing.Mix2(s.p.Seed, rowSalt+uint64(r))
	}
	return s
}

func (s *refSampler) elemLevel(elem uint32) int {
	h := s.prio.Of(elem)
	l := bits.LeadingZeros64(h | 1)
	if l >= s.p.Levels {
		l = s.p.Levels - 1
	}
	return l
}

func (s *refSampler) fp(key uint64) uint64 { return hashing.Mix2(s.fpSeed, key) }

func (s *refSampler) rowPos(level, row int, key uint64) int {
	w := s.p.Cells / samplerRowCount
	h := hashing.Mix2(s.rowSeeds[row]+uint64(level)*0x9e37, key)
	hi, _ := bits.Mul64(h, uint64(w))
	return row*w + int(hi)
}

func (s *refSampler) Update(set, elem uint32, delta int64) {
	key := edgeKey(set, elem)
	fp := s.fp(key)
	top := s.elemLevel(elem)
	for l := 0; l <= top; l++ {
		base := l * s.p.Cells
		for r := 0; r < samplerRowCount; r++ {
			c := &s.cells[base+s.rowPos(l, r, key)]
			c.count += delta
			if delta > 0 {
				var carry uint64
				c.keyLo, carry = bits.Add64(c.keyLo, key, 0)
				c.keyHi += carry
				c.fpSum += fp
			} else {
				var borrow uint64
				c.keyLo, borrow = bits.Sub64(c.keyLo, key, 0)
				c.keyHi -= borrow
				c.fpSum -= fp
			}
		}
	}
}

func (s *refSampler) Recover() (RecoverResult, error) {
	for l := 0; l < s.p.Levels; l++ {
		edges, ok := s.peelLevel(l)
		if !ok {
			continue
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Set != edges[j].Set {
				return edges[i].Set < edges[j].Set
			}
			return edges[i].Elem < edges[j].Elem
		})
		return RecoverResult{Edges: edges, Level: l}, nil
	}
	return RecoverResult{}, ErrNoDecode
}

// refRounds counts the productive rounds of the reference peel.
var refRounds int

func (s *refSampler) peelLevel(level int) ([]bipartite.Edge, bool) {
	base := level * s.p.Cells
	work := append(make([]cell, 0, s.p.Cells), s.cells[base:base+s.p.Cells]...)
	w := s.p.Cells / samplerRowCount

	var keys []uint64
	// Every productive round decodes at least one distinct key and a
	// decodable level holds at most Cells keys, so Cells+8 rounds
	// suffice; the cap also bounds ghost-decode cascades on garbage.
	for round := 0; round < s.p.Cells+8; round++ {
		progress := false
		for pos := range work {
			c := &work[pos]
			if c.zero() || c.count <= 0 {
				continue
			}
			m := uint64(c.count)
			if c.keyHi >= m {
				continue // key sum can't be m·key for any 64-bit key
			}
			key, rem := bits.Div64(c.keyHi, c.keyLo, m)
			if rem != 0 || c.fpSum != m*s.fp(key) {
				continue
			}
			elem := uint32(key)
			if s.elemLevel(elem) < level {
				continue // decoded key doesn't belong at this level
			}
			row := pos / w
			if s.rowPos(level, row, key) != pos {
				continue // decoded key doesn't hash to this cell
			}
			// Pure cell: remove m copies of key from its three cells.
			mhi, mlo := bits.Mul64(m, key)
			mfp := m * s.fp(key)
			for r := 0; r < samplerRowCount; r++ {
				t := &work[s.rowPos(level, r, key)]
				t.count -= int64(m)
				var borrow uint64
				t.keyLo, borrow = bits.Sub64(t.keyLo, mlo, 0)
				t.keyHi -= mhi + borrow
				t.fpSum -= mfp
			}
			keys = append(keys, key)
			progress = true
		}
		if !progress {
			break
		}
		refRounds++
	}
	for i := range work {
		if !work[i].zero() {
			return nil, false
		}
	}
	// Distinct keys only: a ghost decode could in principle repeat a
	// key; dedupe after sorting keeps the output a set.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	edges := make([]bipartite.Edge, 0, len(keys))
	for i, k := range keys {
		if i > 0 && keys[i-1] == k {
			continue
		}
		edges = append(edges, bipartite.Edge{Set: uint32(k >> 32), Elem: uint32(k)})
	}
	return edges, true
}

// TestPremixedHashesAreMix2: each premixed hash is the Mix2 definition
// with its seed-only round evaluated early, and the level is the
// reference's reading of the sketch priority.
func TestPremixedHashesAreMix2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []SamplerParams{testParams(), {Levels: 48, Cells: 6, Seed: 0}, {Levels: 16, Cells: 16386, Seed: ^uint64(0)}} {
		s, ref := NewSampler(p), newRefSampler(p)
		for i := 0; i < 2000; i++ {
			key := rng.Uint64()
			if i < 4 {
				key = []uint64{0, 1, ^uint64(0), 1 << 32}[i]
			}
			if s.fp(key) != ref.fp(key) {
				t.Fatalf("%+v: fp(%#x) differs", p, key)
			}
			if s.elemLevel(uint32(key)) != ref.elemLevel(uint32(key)) {
				t.Fatalf("%+v: elemLevel(%#x) differs", p, uint32(key))
			}
			for l := 0; l < p.Levels; l++ {
				for r := 0; r < samplerRowCount; r++ {
					if s.rowPos(l, r, key) != ref.rowPos(l, r, key) {
						t.Fatalf("%+v: rowPos(%d, %d, %#x) differs", p, l, r, key)
					}
				}
			}
		}
	}
}

// mixedOps builds an op sequence with repeated edges (multiplicity > 1),
// deletes of live edges, deletes of edges never inserted (net-negative
// cells) and the all-zero and all-ones keys.
func mixedOps(n int, seed int64) []bipartite.Op {
	rng := rand.New(rand.NewSource(seed))
	pool := genEdges(n/3+2, seed)
	pool[0] = bipartite.Edge{}
	pool[1] = bipartite.Edge{Set: ^uint32(0), Elem: ^uint32(0)}
	ops := make([]bipartite.Op, n)
	for i := range ops {
		ops[i].Edge = pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			ops[i].Kind = bipartite.OpDelete
		}
	}
	return ops
}

// TestApplyEqualsReferenceUpdate: Apply, AddEdges and Update leave the
// cells the reference Update leaves, for insert/delete mixes with
// repeated edges and under every split of the sequence into two batches.
func TestApplyEqualsReferenceUpdate(t *testing.T) {
	for _, p := range []SamplerParams{testParams(), SamplerParams{Levels: 3, Cells: 6, Seed: 5}.Normalize()} {
		ops := mixedOps(150, int64(p.Cells))
		ref := newRefSampler(p)
		for _, op := range ops {
			delta := int64(1)
			if op.Kind == bipartite.OpDelete {
				delta = -1
			}
			ref.Update(op.Edge.Set, op.Edge.Elem, delta)
		}
		for split := 0; split <= len(ops); split++ {
			s := NewSampler(p)
			s.Apply(ops[:split])
			s.Apply(ops[split:])
			if !slices.Equal(s.cells, ref.cells) {
				t.Fatalf("cells %d: Apply split at %d differs from the reference Update", p.Cells, split)
			}
		}
		// AddEdges for the inserts, Update for the deletes, in any order:
		// the cells are a function of the net multiset.
		s := NewSampler(p)
		var ins []bipartite.Edge
		for _, op := range ops {
			if op.Kind == bipartite.OpDelete {
				s.Update(op.Edge.Set, op.Edge.Elem, -1)
			} else {
				ins = append(ins, op.Edge)
			}
		}
		s.AddEdges(ins)
		if !slices.Equal(s.cells, ref.cells) {
			t.Fatalf("cells %d: AddEdges + Update differs from the reference Update", p.Cells)
		}
	}
}

// sameRecover fails unless s and the reference sampler over the same
// cells recover the same (ok, level, edges).
func sameRecover(t *testing.T, label string, s *Sampler) (RecoverResult, error) {
	t.Helper()
	ref := newRefSampler(s.p)
	copy(ref.cells, s.cells)
	before := slices.Clone(s.cells)
	got, gotErr := s.Recover()
	want, wantErr := ref.Recover()
	if !slices.Equal(s.cells, before) {
		t.Fatalf("%s: Recover wrote to the sampler's cells", label)
	}
	if !errors.Is(gotErr, wantErr) || got.Level != want.Level || !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: recovered (level %d, %d edges, err %v), reference (level %d, %d edges, err %v)",
			label, got.Level, len(got.Edges), gotErr, want.Level, len(want.Edges), wantErr)
	}
	return got, gotErr
}

// addAt adds m copies of key to its three cells of one level only.
func (s *Sampler) addAt(level int, key uint64, m int64) {
	for r := 0; r < samplerRowCount; r++ {
		s.cells[level*s.p.Cells+s.rowPos(level, r, key)].add(key, s.fp(key), m)
	}
}

func (c *cell) add(key, fp uint64, m int64) {
	c.count += m
	hi, lo := bits.Mul64(uint64(m), key) // m ≥ 0 in the callers
	var carry uint64
	c.keyLo, carry = bits.Add64(c.keyLo, lo, 0)
	c.keyHi += hi + carry
	c.fpSum += uint64(m) * fp
}

// TestRecoverEqualsReferencePeel holds Recover to the reference peel on
// states of every shape the equivalence argument (DESIGN.md §14) covers.
func TestRecoverEqualsReferencePeel(t *testing.T) {
	p := testParams()

	t.Run("load sweep", func(t *testing.T) {
		// From empty through exact decode, the peeling threshold (levels
		// that peel partway and stall) and deep subsampling.
		for _, n := range []int{0, 1, 5, 30, 60, 70, 75, 80, 85, 90, 100, 150, 400, 3000, 20000} {
			for seed := int64(0); seed < 4; seed++ {
				s := NewSampler(p)
				s.AddEdges(genEdges(n, 100*seed+int64(n)))
				sameRecover(t, fmt.Sprintf("%d edges, seed %d", n, seed), s)
			}
		}
	})

	t.Run("multiplicity and net-negative cells", func(t *testing.T) {
		for seed := int64(0); seed < 50; seed++ {
			s := NewSampler(p)
			s.Apply(mixedOps(20+int(seed)*7, seed))
			sameRecover(t, fmt.Sprintf("mixed ops, seed %d", seed), s)
		}
		s := NewSampler(p)
		edges := genEdges(24, 5)
		for i := 0; i < 5; i++ {
			s.AddEdges(edges[:6*(i%4+1)])
		}
		rec, err := sameRecover(t, "multiplicity up to 5", s)
		if err != nil || rec.Level != 0 || len(rec.Edges) != 24 {
			t.Fatalf("multiplicity state decoded (level %d, %d edges, err %v), want 24 edges at level 0", rec.Level, len(rec.Edges), err)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		decoded := 0
		for i := 0; i < 2000; i++ {
			s := NewSampler(p)
			s.AddEdges(genEdges(rng.Intn(120), int64(i)))
			// Mostly a few writes into the shallow levels (recovery moves
			// to a deeper one); every fourth state gets them everywhere.
			writes, levels := rng.Intn(6)+1, 3
			if i%4 == 0 {
				writes, levels = 8*p.Levels, p.Levels
			}
			for g := 0; g < writes; g++ {
				level := rng.Intn(levels)
				key := edgeKey(uint32(rng.Intn(64)), uint32(rng.Intn(1<<16)))
				m := int64(rng.Intn(4) + 1)
				c := &s.cells[level*p.Cells+s.rowPos(level, rng.Intn(samplerRowCount), key)]
				switch rng.Intn(4) {
				case 0: // a ghost: m copies of a key in one of its cells only
					c.add(key, s.fp(key), m)
				case 1: // unequal multiplicities across a key's cells
					s.addAt(level, key, m)
					c.add(key, s.fp(key), m)
				case 2: // a pure-looking cell where the key does not hash
					s.cells[level*p.Cells+rng.Intn(p.Cells)].add(key, s.fp(key), m)
				default: // noise
					*c = cell{count: int64(rng.Intn(7) - 3), keyLo: rng.Uint64(), keyHi: uint64(rng.Intn(3)), fpSum: rng.Uint64()}
				}
			}
			if _, err := sameRecover(t, fmt.Sprintf("garbage state %d", i), s); err == nil {
				decoded++
			}
		}
		if decoded == 0 || decoded == 2000 {
			t.Fatalf("%d of 2000 garbage states decoded; the mix should produce both outcomes", decoded)
		}
	})

	t.Run("sweep staircase", func(t *testing.T) {
		// The Cells+8 cap itself is out of reach: a peeled cell is zero and
		// is only ever subtracted from afterwards, so its count stays ≤ 0
		// and it is never pure twice — at most Cells decodes, hence at
		// most Cells productive sweeps, on any cell state. What can be
		// built is the state that spends the most sweeps per decode: a
		// chain k1, k2, … in which peeling k(t) leaves k(t+1) alone in a
		// cell one row *below* the cursor (tested one sweep later) twice
		// out of three steps, and one row above (same sweep) the third.
		// Every decode then rides the dirty bitmaps: nothing but the
		// chain's head is pure when the level is first swept.
		s := NewSampler(p)
		w := p.Cells / samplerRowCount
		sink := w - 1 // per-row cell that takes every key's third copy
		chain := 3 * (w - 1)
		cellAt := func(t int) (row, idx int) { return 2 - t%3, t / 3 }
		rng := rand.New(rand.NewSource(11))
		// addKeyAt adds one key whose level-0 cells are in-row indices
		// at[0], at[1], at[2] of rows 0, 1, 2.
		addKeyAt := func(at [samplerRowCount]int) {
			for {
				key := rng.Uint64()
				if s.rowPos(0, 0, key) == at[0] && s.rowPos(0, 1, key) == w+at[1] && s.rowPos(0, 2, key) == 2*w+at[2] {
					s.addAt(0, key, 1)
					return
				}
			}
		}
		for link := 1; link < chain; link++ {
			at := [samplerRowCount]int{sink, sink, sink}
			for _, t := range []int{link - 1, link} {
				row, idx := cellAt(t)
				at[row] = idx
			}
			addKeyAt(at)
		}
		// A blocker shares the chain's last cell, so the peel cannot start
		// from that end as well.
		at := [samplerRowCount]int{sink, sink, sink}
		row, idx := cellAt(chain - 1)
		at[row] = idx
		addKeyAt(at)

		refRounds = 0
		rec, err := sameRecover(t, "staircase", s)
		if err != nil || rec.Level != 0 || len(rec.Edges) != chain {
			t.Fatalf("staircase decoded (level %d, %d edges, err %v), want %d edges at level 0", rec.Level, len(rec.Edges), err, chain)
		}
		if want := 2 * (chain - 3) / 3; refRounds < want {
			t.Fatalf("staircase peeled in %d sweeps, built for at least %d", refRounds, want)
		}
	})
}

// TestReadSamplerRejectsCellCountBeyondTheBlob: the expected geometry
// but more non-zero cells announced than bytes follow is refused before
// the cell array exists. (The foreign-geometry half of the same bugfix is
// TestReadStateRejectsForeignGeometryBeforeAllocating in internal/server.)
func TestReadSamplerRejectsCellCountBeyondTheBlob(t *testing.T) {
	big := SamplerParams{Levels: 16, Cells: 16386, Seed: 7}
	lying := headerOnlySampler(t, big, 1000)
	if alloc := allocatedBy(func() {
		if _, err := ReadSampler(bytes.NewReader(lying), big); !errors.Is(err, ErrCorruptSampler) {
			t.Fatalf("nnz beyond the blob: err = %v, want ErrCorruptSampler", err)
		}
	}); alloc > 1<<20 {
		t.Fatalf("rejecting an nnz the blob cannot hold allocated %d bytes", alloc)
	}
}

// headerOnlySampler is a serialized sampler with no cell entries: magic,
// header announcing nnz, CRC over the header.
func headerOnlySampler(t testing.TB, p SamplerParams, nnz uint64) []byte {
	blob := serialize(t, &Sampler{p: p})
	hdr := blob[len(samplerMagic) : len(samplerMagic)+samplerHeaderLen]
	for i := 0; i < 8; i++ {
		hdr[samplerHeaderLen-8+i] = byte(nnz >> (8 * i))
	}
	crc := crc32.Checksum(hdr, crcTable)
	for i := 0; i < 4; i++ {
		blob[len(blob)-4+i] = byte(crc >> (8 * i))
	}
	return blob
}

// allocatedBy reports the heap bytes f allocated (TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadSampler: arbitrary bytes either fail to decode or decode to a
// sampler of the expected geometry whose WriteTo → ReadSampler round trip
// has equal cells; the decoder never allocates past that geometry.
func FuzzReadSampler(f *testing.F) {
	p := testParams()
	s := NewSampler(p)
	f.Add(serialize(f, s))
	s.Apply(mixedOps(60, 1))
	blob := serialize(f, s)
	f.Add(blob)
	f.Add(blob[:len(blob)-7])
	f.Add(headerOnlySampler(f, SamplerParams{Levels: 16, Cells: 1048575, Seed: 42}, 0))
	f.Add(headerOnlySampler(f, p, 1<<40))
	budget := uint64(p.Levels*p.Cells*32) + 1<<20 // the fuzz worker's own goroutines allocate too
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Sampler
		var err error
		if alloc := allocatedBy(func() { got, err = ReadSampler(bytes.NewReader(data), p) }); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, more than the expected geometry (%d)", len(data), alloc, budget)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptSampler) && !errors.Is(err, ErrParamsMismatch) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if got.Params() != p {
			t.Fatalf("decoded params %+v, expected %+v", got.Params(), p)
		}
		again, err := ReadSampler(bytes.NewReader(serialize(t, got)), p)
		if err != nil {
			t.Fatalf("re-reading a decoded sampler: %v", err)
		}
		if !slices.Equal(again.cells, got.cells) {
			t.Fatal("WriteTo → ReadSampler changed the cells")
		}
	})
}
