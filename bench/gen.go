package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bipartite"
	"repro/internal/greedy"
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Server-side sketch parameters shared by every workload and by the
// in-process reference (covserved -n -k -eps -seed). The paper-formula
// budget at these parameters is 2.2e12 edges ("keep everything"), so
// every workload passes an explicit -budget.
const (
	numSets    = 1000
	sketchK    = 20
	sketchEps  = 0.3
	sketchSeed = 7
	shards     = 2
)

// instance is the input family of every workload: one Zipf base graph,
// shuffled once, replayed as epochs whose element ids are offset by
// epoch*m. Epochs are disjoint isomorphic copies, so new elements keep
// arriving (the unbounded-ground-set regime the O~(n) space claim is
// about) while the true coverage of a solution over E live epochs is
// E times its coverage on the base graph.
type instance struct {
	m    int
	g    *bipartite.Graph
	base []bipartite.Edge
	// optCover is greedy.MaxCover(g, sketchK).Covered, the denominator
	// of coverage_ratio; filled by the verification step, not by set-up.
	optCover int
}

// instanceShape sizes the base graph. Full is the ISSUE's instance
// (about 5.29M edges); tiny keeps the set count (the servers run -n
// 1000) and shrinks everything else for the smoke test.
type instanceShape struct{ m, maxSet int }

var (
	fullShape = instanceShape{m: 1_000_000, maxSet: 500_000}
	tinyShape = instanceShape{m: 4_000, maxSet: 1_500}
)

func newInstance(shape instanceShape, seed uint64) *instance {
	inst := workload.Zipf(numSets, shape.m, shape.maxSet, 0.9, 0.7, seed)
	return &instance{
		m:    shape.m,
		g:    inst.G,
		base: stream.Drain(stream.Shuffled(inst.G, seed+1)),
	}
}

// edges is the number of edges in one epoch.
func (in *instance) edges() int { return len(in.base) }

// fill copies base[off:off+len(dst)] relabelled into epoch. Relabelling
// while copying is all the generator does per edge, so its cost stays
// far below the server's (workload.gen.ns_per_edge checks that).
func (in *instance) fill(dst []bipartite.Edge, epoch, off int) {
	shift := uint32(epoch * in.m)
	for i, e := range in.base[off : off+len(dst)] {
		dst[i] = bipartite.Edge{Set: e.Set, Elem: e.Elem + shift}
	}
}

// fillOps is fill for the op plane.
func (in *instance) fillOps(dst []bipartite.Op, kind bipartite.OpKind, epoch, off int) {
	shift := uint32(epoch * in.m)
	for i, e := range in.base[off : off+len(dst)] {
		dst[i] = bipartite.Op{Kind: kind, Edge: bipartite.Edge{Set: e.Set, Elem: e.Elem + shift}}
	}
}

// eachBatch calls fn(epoch, off, n) for every batch of the epochs
// [from, to), in stream order, until fn returns an error.
func (in *instance) eachBatch(from, to, batch int, fn func(epoch, off, n int) error) error {
	for ep := from; ep < to; ep++ {
		for off := 0; off < len(in.base); off += batch {
			n := min(batch, len(in.base)-off)
			if err := fn(ep, off, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// solveBase fills optCover (idempotent).
func (in *instance) solveBase() {
	if in.optCover == 0 {
		in.optCover = greedy.MaxCover(in.g, sketchK).Covered
	}
}

// coverageRatio is the true coverage of sets over the coverage of the
// offline greedy on the whole base graph.
func (in *instance) coverageRatio(sets []int) float64 {
	in.solveBase()
	if in.optCover == 0 {
		return 0
	}
	return float64(in.g.Coverage(sets)) / float64(in.optCover)
}

// sizes holds every workload's work, derived from -seconds so that the
// measured parts take about that long on the machine the sizing ran on
// (README.md). Only epoch counts scale; batch sizes, rates and budgets
// are the ISSUE's.
type sizes struct {
	shape instanceShape

	durableEpochs     int           // wire-durable: multiple of 8 (checkpoints at 1/4, 1/2, 3/4, 7/8)
	durableQueryEvery time.Duration // between the control goroutine's fresh queries

	mixedEpochs int     // mixed-fresh part A
	mixedRate   float64 // edges/s, open loop
	mixedReads  int     // mixed-fresh part B: queries per client

	httpEpochs  int // tenants part A
	churnEpochs int // tenants part B: epochs inserted (each deleted two epochs later)

	pairPreload int     // cluster-pair: epochs into A during set-up
	pairEpochs  int     // cluster-pair: epochs into B, measured
	pairRate    float64 // edges/s, open loop
}

func sizesFor(scale string, seconds int) (sizes, error) {
	switch scale {
	case "tiny":
		return sizes{
			shape:             tinyShape,
			durableEpochs:     8,
			durableQueryEvery: 20 * time.Millisecond,
			mixedEpochs:       4, mixedRate: 400_000, mixedReads: 200,
			httpEpochs: 2, churnEpochs: 4,
			pairPreload: 1, pairEpochs: 4, pairRate: 200_000,
		}, nil
	case "full":
	default:
		return sizes{}, fmt.Errorf("unknown -scale %q (full, tiny)", scale)
	}
	if seconds < 1 {
		return sizes{}, fmt.Errorf("-seconds must be at least 1")
	}
	s := float64(seconds)
	atLeast := func(lo int, v float64) int { return max(lo, int(math.Round(v))) }
	return sizes{
		shape:             fullShape,
		durableEpochs:     8 * atLeast(1, s*64/(15*8)),
		durableQueryEvery: 250 * time.Millisecond,
		mixedEpochs:       atLeast(1, 0.5*s), mixedRate: 4_000_000, mixedReads: atLeast(100, 10_000*s/15),
		httpEpochs: atLeast(1, 0.2*s), churnEpochs: atLeast(3, 0.6*s),
		pairPreload: atLeast(1, s/8), pairEpochs: atLeast(1, s/3), pairRate: 2_000_000,
	}, nil
}

// zipfKs draws n values of k from a Zipf law over 1..128 (alpha 1): the
// read burst's query mix against the 64-entry result cache.
func zipfKs(seed uint64, n int) []int {
	z := hashing.NewZipf(hashing.NewRNG(seed), 128, 1.0)
	ks := make([]int, n)
	for i := range ks {
		ks[i] = z.Draw() + 1
	}
	return ks
}
