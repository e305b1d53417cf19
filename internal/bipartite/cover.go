package bipartite

// This file is the query-plane coverage engine: incremental coverage
// evaluation behind the CoverageEvaluator interface, with two
// implementations — the epoch-stamped Coverer (bipartite.go), whose
// Marginal scans a set's adjacency list, and the BitsetCoverer, which
// answers marginals with word-level popcounts over dense per-set
// element bitmaps. Both produce exactly the same integer marginals, so
// greedy runs are bit-identical whichever engine backs them (pinned by
// the equivalence property tests in internal/greedy).

import "repro/internal/bitset"

// CoverageEvaluator evaluates coverage incrementally for the greedy
// algorithms: Add commits sets to the solution, Marginal prices a
// candidate without changing state. Implementations are deterministic —
// marginals are exact counts — so a greedy run produces the same picks
// regardless of which evaluator backs it.
type CoverageEvaluator interface {
	// Add marks every element of the given sets and returns the total
	// number of distinct elements covered so far.
	Add(sets ...int) int
	// Marginal returns |set s \ covered| without changing the state.
	Marginal(s int) int
	// Covered returns the number of distinct elements covered so far.
	Covered() int
	// Reset clears the covered-set.
	Reset()
	// IsCovered reports whether element e has been covered (an absent
	// element of the graph always has).
	IsCovered(e uint32) bool
}

var (
	_ CoverageEvaluator = (*Coverer)(nil)
	_ CoverageEvaluator = (*BitsetCoverer)(nil)
)

// setBitmaps is the dense bitmap index: one ceil(m/64)-word row per
// set, flat in one allocation. Row s has bit e set iff element e
// belongs to set s. Immutable once built.
type setBitmaps struct {
	words int
	rows  []uint64 // len numSets*words; row s = rows[s*words:(s+1)*words]
}

func (ix *setBitmaps) row(s int) bitset.Bitset {
	return bitset.Bitset(ix.rows[s*ix.words : (s+1)*ix.words])
}

// bitmaps builds (once) and returns the per-set bitmap index.
func (g *Graph) bitmaps() *setBitmaps {
	g.coverOnce.Do(func() {
		words := (g.numElems + 63) / 64
		ix := &setBitmaps{words: words, rows: make([]uint64, g.numSets*words)}
		for s := 0; s < g.numSets; s++ {
			row := ix.rows[s*words : (s+1)*words]
			for _, e := range g.Set(s) {
				row[e>>6] |= 1 << uint(e&63)
			}
		}
		g.coverIndex = ix
	})
	return g.coverIndex
}

// maxCoverIndexWords caps the bitmap index at 64 MiB so NewEvaluator
// never silently balloons memory on huge sparse instances.
const maxCoverIndexWords = 8 << 20

// bitsetProfitable reports whether the bitset engine should back
// evaluators for g. A bitset marginal scans ceil(m/64) words regardless
// of the set's size while a stamp marginal scans |set| adjacency
// entries, so the bitmaps only pay off when the average set is at least
// as large as the word count (≥ 1 covered bit per word scanned) — the
// dense-degree regime of sketch snapshots. The index memory is capped
// as well.
func (g *Graph) bitsetProfitable() bool {
	if g.numSets == 0 || g.numElems == 0 || g.NumEdges() == 0 {
		return false
	}
	words := int64((g.numElems + 63) / 64)
	if int64(g.numSets)*words > maxCoverIndexWords {
		return false
	}
	return int64(g.NumEdges()) >= int64(g.numSets)*words
}

// NewEvaluator returns the coverage evaluator best suited to g: the
// bitset engine when the dense per-set bitmaps are affordable and
// profitable (see bitsetProfitable), else the stamp engine. Both yield
// identical greedy results.
func (g *Graph) NewEvaluator() CoverageEvaluator {
	if g.bitsetProfitable() {
		return NewBitsetCoverer(g)
	}
	return NewCoverer(g)
}

// BuildCoverIndex eagerly materializes the bitmap index NewEvaluator's
// bitset engine rides (a no-op when the heuristic selects the stamp
// engine). Snapshot publishers call it once at graph materialization so
// the first query after a refresh does not pay the index build.
func (g *Graph) BuildCoverIndex() {
	if g.bitsetProfitable() {
		g.bitmaps()
	}
}

// BitsetCoverer is the bitset-backed CoverageEvaluator: covered
// elements live in one dense bitmap, per-set bitmaps come from the
// graph's shared index, and marginals are word-level AND-NOT popcounts
// (bitset.AndNotCount / UnionCount).
type BitsetCoverer struct {
	g       *Graph
	ix      *setBitmaps
	covered bitset.Bitset
	count   int
}

// NewBitsetCoverer returns a bitset-backed evaluator for g, building
// the graph's bitmap index on first use. Absent elements start covered
// (the index rows keep their bits) and are never counted.
func NewBitsetCoverer(g *Graph) *BitsetCoverer {
	c := &BitsetCoverer{g: g, ix: g.bitmaps(), covered: bitset.New(g.numElems)}
	c.covered.CopyFrom(g.absent)
	return c
}

// Add marks every element of the given sets and returns the total
// number of distinct elements covered so far.
func (c *BitsetCoverer) Add(sets ...int) int {
	for _, s := range sets {
		c.count += c.covered.UnionCount(c.ix.row(s))
	}
	return c.count
}

// Marginal returns |set s \ covered| without changing the state.
func (c *BitsetCoverer) Marginal(s int) int {
	return c.covered.AndNotCount(c.ix.row(s))
}

// Covered returns the number of distinct elements covered so far.
func (c *BitsetCoverer) Covered() int { return c.count }

// Reset clears the covered-set.
func (c *BitsetCoverer) Reset() {
	c.covered.Reset()
	c.covered.CopyFrom(c.g.absent)
	c.count = 0
}

// IsCovered reports whether element e has been covered; an absent element
// always has.
func (c *BitsetCoverer) IsCovered(e uint32) bool { return c.covered.Get(int(e)) }
