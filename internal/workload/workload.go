// Package workload generates synthetic coverage instances. The paper's own
// empirical evaluation lives in its companion paper on real data sets we do
// not have; these generators substitute for them (see DESIGN.md §3):
// planted instances provide known optima so approximation ratios can be
// measured exactly, Zipf instances reproduce heavy-tailed set sizes, and
// the "large sets" generator reproduces the regime the paper highlights
// (set sizes ≫ n) where set-arrival algorithms pay O~(m) space.
package workload

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/hashing"
)

// Instance is a generated coverage instance together with ground truth
// about its optimum where the construction provides one.
type Instance struct {
	G    *bipartite.Graph
	Name string

	// PlantedSets is a distinguished solution used to lower-bound the
	// optimum (nil when the generator plants nothing).
	PlantedSets []int
	// PlantedCoverage is the coverage of PlantedSets; for k-cover
	// instances Opt_k >= PlantedCoverage.
	PlantedCoverage int
	// OptCoverSize, when non-zero, is a known upper bound on the optimal
	// set-cover size (PlantedSets covers every non-isolated element).
	OptCoverSize int
}

// Uniform generates n sets over m elements where each set independently
// contains each element with probability density. Expected set size is
// density*m.
func Uniform(n, m int, density float64, seed uint64) Instance {
	rng := hashing.NewRNG(seed)
	edges := make([]bipartite.Edge, 0, int(float64(n*m)*density)+n)
	for s := 0; s < n; s++ {
		for e := 0; e < m; e++ {
			if rng.Float64() < density {
				edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
			}
		}
	}
	ensureNoIsolated(&edges, n, m, rng)
	return Instance{
		G:    bipartite.MustFromEdges(n, m, edges),
		Name: fmt.Sprintf("uniform(n=%d,m=%d,d=%g)", n, m, density),
	}
}

// UniformFixedSize generates n sets of exactly size elements each, drawn
// uniformly without replacement from the ground set.
func UniformFixedSize(n, m, size int, seed uint64) Instance {
	if size > m {
		size = m
	}
	rng := hashing.NewRNG(seed)
	edges := make([]bipartite.Edge, 0, n*size)
	for s := 0; s < n; s++ {
		for _, e := range rng.Sample(m, size) {
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
		}
	}
	ensureNoIsolated(&edges, n, m, rng)
	return Instance{
		G:    bipartite.MustFromEdges(n, m, edges),
		Name: fmt.Sprintf("uniformFixed(n=%d,m=%d,size=%d)", n, m, size),
	}
}

// Zipf generates n sets whose sizes follow a power law with exponent
// sizeAlpha (set 0 largest, roughly maxSize/(rank+1)^sizeAlpha) and whose
// elements are drawn from a Zipf popularity distribution with exponent
// elemAlpha, reproducing the heavy-tailed structure of web-scale coverage
// instances.
func Zipf(n, m, maxSize int, sizeAlpha, elemAlpha float64, seed uint64) Instance {
	rng := hashing.NewRNG(seed)
	elemDist := hashing.NewZipf(rng, m, elemAlpha)
	edges := make([]bipartite.Edge, 0, 4*n)
	for s := 0; s < n; s++ {
		size := int(float64(maxSize) * pow(float64(s+1), -sizeAlpha))
		if size < 1 {
			size = 1
		}
		if size > m {
			size = m
		}
		seen := make(map[int]struct{}, size)
		for len(seen) < size {
			e := elemDist.Draw()
			if _, dup := seen[e]; dup {
				// Popular elements repeat often; fall back to a uniform
				// draw after a duplicate to guarantee termination.
				e = rng.Intn(m)
				if _, dup2 := seen[e]; dup2 {
					continue
				}
			}
			seen[e] = struct{}{}
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
		}
	}
	ensureNoIsolated(&edges, n, m, rng)
	return Instance{
		G:    bipartite.MustFromEdges(n, m, edges),
		Name: fmt.Sprintf("zipf(n=%d,m=%d,max=%d,a=%g/%g)", n, m, maxSize, sizeAlpha, elemAlpha),
	}
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

// PlantedKCover builds an instance where k planted sets partition a
// 'signal' fraction of the ground set (so together they cover
// signal*m elements), and the remaining n-k decoy sets are small uniform
// sets of size decoySize. Opt_k is exactly the planted coverage when
// decoys are too small to beat the partition.
func PlantedKCover(n, m, k int, signal float64, decoySize int, seed uint64) Instance {
	if k <= 0 || k > n {
		panic("workload: PlantedKCover needs 0 < k <= n")
	}
	rng := hashing.NewRNG(seed)
	covered := int(signal * float64(m))
	if covered < k {
		covered = k
	}
	if covered > m {
		covered = m
	}
	// Shuffle elements; first `covered` are split evenly among planted sets.
	perm := rng.Perm(m)
	edges := make([]bipartite.Edge, 0, covered+(n-k)*decoySize)
	planted := make([]int, k)
	for i := 0; i < k; i++ {
		planted[i] = i
	}
	for i := 0; i < covered; i++ {
		s := i % k
		edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(perm[i])})
	}
	// Decoys draw uniformly from the whole ground set.
	for s := k; s < n; s++ {
		for _, e := range rng.Sample(m, min(decoySize, m)) {
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
		}
	}
	ensureNoIsolated(&edges, n, m, rng)
	g := bipartite.MustFromEdges(n, m, edges)
	return Instance{
		G:               g,
		Name:            fmt.Sprintf("plantedKCover(n=%d,m=%d,k=%d,sig=%g)", n, m, k, signal),
		PlantedSets:     planted,
		PlantedCoverage: g.Coverage(planted),
	}
}

// PlantedSetCover builds an instance with a planted cover of exactly
// coverSize sets partitioning the ground set, plus n-coverSize decoy sets
// that each take a uniform sample of overlap elements. The optimal set
// cover size is at most coverSize (and generically equal to it, since the
// planted sets partition E and decoys are small).
func PlantedSetCover(n, m, coverSize, overlap int, seed uint64) Instance {
	if coverSize <= 0 || coverSize > n {
		panic("workload: PlantedSetCover needs 0 < coverSize <= n")
	}
	rng := hashing.NewRNG(seed)
	perm := rng.Perm(m)
	edges := make([]bipartite.Edge, 0, m+(n-coverSize)*overlap)
	planted := make([]int, coverSize)
	for i := range planted {
		planted[i] = i
	}
	for i, e := range perm {
		s := i % coverSize
		edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
	}
	for s := coverSize; s < n; s++ {
		for _, e := range rng.Sample(m, min(overlap, m)) {
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
		}
	}
	g := bipartite.MustFromEdges(n, m, edges)
	return Instance{
		G:               g,
		Name:            fmt.Sprintf("plantedSetCover(n=%d,m=%d,k*=%d)", n, m, coverSize),
		PlantedSets:     planted,
		PlantedCoverage: m,
		OptCoverSize:    coverSize,
	}
}

// BlogTopics mimics the multi-topic blog-watch application motivating
// Saha–Getoor: nBlogs blogs each post about a Zipf-popular selection of
// topics; topicsPerBlog follows a power law across blogs. Elements are
// topics, sets are blogs.
func BlogTopics(nBlogs, nTopics, maxTopicsPerBlog int, seed uint64) Instance {
	return Zipf(nBlogs, nTopics, maxTopicsPerBlog, 0.8, 0.7, seed)
}

// LargeSets generates the regime the paper emphasizes (footnote 2 and the
// conclusion): few sets, each very large (size ~ frac*m with m >> n).
// Set-arrival algorithms must buffer whole sets here, paying Θ(m); the
// H<=n sketch stays at O~(n).
func LargeSets(n, m int, frac float64, seed uint64) Instance {
	rng := hashing.NewRNG(seed)
	size := int(frac * float64(m))
	if size < 1 {
		size = 1
	}
	edges := make([]bipartite.Edge, 0, n*size)
	for s := 0; s < n; s++ {
		for _, e := range rng.Sample(m, size) {
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
		}
	}
	ensureNoIsolated(&edges, n, m, rng)
	return Instance{
		G:    bipartite.MustFromEdges(n, m, edges),
		Name: fmt.Sprintf("largeSets(n=%d,m=%d,frac=%g)", n, m, frac),
	}
}

// Clustered builds nClusters groups of sets, where sets in a group cover
// (noisy copies of) the same element block — the structure under which
// greedy-style algorithms must diversify across clusters. One set per
// cluster is a full block; the rest are random halves.
func Clustered(n, m, nClusters int, seed uint64) Instance {
	if nClusters <= 0 || nClusters > n {
		panic("workload: Clustered needs 0 < nClusters <= n")
	}
	rng := hashing.NewRNG(seed)
	blockLen := m / nClusters
	if blockLen == 0 {
		blockLen = 1
	}
	edges := make([]bipartite.Edge, 0, n*blockLen)
	planted := make([]int, 0, nClusters)
	for s := 0; s < n; s++ {
		c := s % nClusters
		lo := c * blockLen
		hi := lo + blockLen
		if c == nClusters-1 {
			hi = m
		}
		if s < nClusters {
			// representative: full block
			planted = append(planted, s)
			for e := lo; e < hi; e++ {
				edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(e)})
			}
			continue
		}
		// noisy member: random half of the block
		width := hi - lo
		for _, off := range rng.Sample(width, width/2) {
			edges = append(edges, bipartite.Edge{Set: uint32(s), Elem: uint32(lo + off)})
		}
	}
	ensureNoIsolated(&edges, n, m, rng)
	g := bipartite.MustFromEdges(n, m, edges)
	return Instance{
		G:               g,
		Name:            fmt.Sprintf("clustered(n=%d,m=%d,c=%d)", n, m, nClusters),
		PlantedSets:     planted,
		PlantedCoverage: g.Coverage(planted),
		OptCoverSize:    nClusters,
	}
}

// ensureNoIsolated adds one random edge to every isolated element so that
// generated instances satisfy the paper's no-isolated-elements assumption.
func ensureNoIsolated(edges *[]bipartite.Edge, n, m int, rng *hashing.RNG) {
	seen := make([]bool, m)
	for _, e := range *edges {
		seen[e.Elem] = true
	}
	for e := 0; e < m; e++ {
		if !seen[e] {
			*edges = append(*edges, bipartite.Edge{Set: uint32(rng.Intn(n)), Elem: uint32(e)})
		}
	}
}
