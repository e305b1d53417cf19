package server

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/weighted"
	"repro/internal/workload"
)

// weightTable spreads m elements across several geometric weight
// classes, with a zero-weight residue class to exercise the skip path.
func weightTable(m int) []float64 {
	t := make([]float64, m)
	for e := range t {
		t[e] = float64((uint32(e) * 2654435761) % 9)
	}
	return t
}

func weightedTestConfig(n, m, k int, seed uint64, shards int) Config {
	return Config{
		NumSets: n, NumElems: m, K: k,
		Eps: 0.4, Seed: seed, EdgeBudget: 60 * n,
		Shards: shards, QueueDepth: 8,
		Weights: &WeightConfig{Table: weightTable(m)},
	}
}

func sameIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWeightedEngineMatchesOneShot pins the tentpole equivalence at the
// engine layer: for any shard count and batch split, a weighted engine
// answers kcover bit-identically to the one-shot weighted.KCover with
// the same options over the same edges — including after a snapshot
// write/restore cycle.
func TestWeightedEngineMatchesOneShot(t *testing.T) {
	const (
		n, m, k = 50, 3000, 5
		seed    = 21
	)
	inst := workload.Zipf(n, m, 700, 0.9, 0.7, seed)
	cfg := weightedTestConfig(n, m, k, seed, 1)
	fn := cfg.Weights.Fn()

	oneshot, err := weighted.KCover(stream.Shuffled(inst.G, 3), n, k, fn, cfg.WeightedOptions())
	if err != nil {
		t.Fatal(err)
	}

	edges := stream.Drain(stream.Shuffled(inst.G, 3))
	for i, shards := range []int{1, 4, 8} {
		batch := []int{len(edges), 97, 512}[i]
		cfg := weightedTestConfig(n, m, k, seed, shards)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(edges); lo += batch {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			if _, err := e.Ingest(edges[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		for _, algo := range []Algo{AlgoKCover, AlgoWeightedKCover} {
			res, err := e.Query(Query{Algo: algo, K: k, Refresh: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.EstimatedCoverage != oneshot.EstimatedCoverage || !sameIntSets(res.Sets, oneshot.Sets) {
				t.Fatalf("shards=%d algo=%s: engine (%v, %v) != one-shot (%v, %v)",
					shards, algo, res.Sets, res.EstimatedCoverage, oneshot.Sets, oneshot.EstimatedCoverage)
			}
			if !res.Weighted || res.WeightClasses != oneshot.Classes {
				t.Fatalf("shards=%d: result marks weighted=%v classes=%d, want true/%d",
					shards, res.Weighted, res.WeightClasses, oneshot.Classes)
			}
			if res.SketchCoverage != oneshot.CoveredElems {
				t.Fatalf("shards=%d: sketch coverage %d != one-shot %d", shards, res.SketchCoverage, oneshot.CoveredElems)
			}
		}
		if res, err := e.Query(Query{Algo: AlgoKCover, K: k}); err != nil || res.SnapshotEdges != int64(len(edges)) {
			t.Fatalf("shards=%d: snapshot at %d of %d edges (err %v)", shards, res.SnapshotEdges, len(edges), err)
		}

		// Persist, restore into a fresh engine, and re-verify.
		var buf bytes.Buffer
		if _, err := e.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		e.Close()
		restored, err := NewFromSnapshot(&buf, weightedTestConfig(n, m, k, seed, shards))
		if err != nil {
			t.Fatal(err)
		}
		res, err := restored.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.EstimatedCoverage != oneshot.EstimatedCoverage || !sameIntSets(res.Sets, oneshot.Sets) {
			t.Fatalf("shards=%d: restored engine (%v, %v) != one-shot (%v, %v)",
				shards, res.Sets, res.EstimatedCoverage, oneshot.Sets, oneshot.EstimatedCoverage)
		}
		if res.SnapshotEdges != int64(len(edges)) {
			t.Fatalf("shards=%d: restored accounting %d of %d edges", shards, res.SnapshotEdges, len(edges))
		}
		restored.Close()
	}
}

// TestWeightedEngineHalfRestoreResume pins restore mid-stream: half the
// edges before the snapshot, half after, must equal the uninterrupted
// weighted run.
func TestWeightedEngineHalfRestoreResume(t *testing.T) {
	const n, m, k = 40, 2500, 4
	inst := workload.PlantedKCover(n, m, k, 0.9, 25, 5)
	cfg := weightedTestConfig(n, m, k, 13, 4)
	edges := stream.Drain(stream.Shuffled(inst.G, 2))
	half := len(edges) / 2

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Ingest(edges[:half]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := first.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second, err := NewFromSnapshot(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Ingest(edges[half:]); err != nil {
		t.Fatal(err)
	}
	got, err := second.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedCoverage != want.EstimatedCoverage || !sameIntSets(got.Sets, want.Sets) {
		t.Fatalf("restored weighted engine (%v, %v) != uninterrupted (%v, %v)",
			got.Sets, got.EstimatedCoverage, want.Sets, want.EstimatedCoverage)
	}
	if got.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("restored accounting %d of %d edges", got.SnapshotEdges, len(edges))
	}
}

// TestWeightedEngineValidation covers mode/algo mismatches and weight
// validation.
func TestWeightedEngineValidation(t *testing.T) {
	bad := weightedTestConfig(10, 100, 2, 1, 2)
	bad.Weights.Table[3] = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative weight accepted")
	}

	we, err := New(weightedTestConfig(10, 100, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer we.Close()
	if _, err := we.Query(Query{Algo: AlgoOutliers, Lambda: 0.1}); err == nil {
		t.Fatal("outliers accepted on a weighted engine")
	}
	if _, err := we.Query(Query{Algo: AlgoGreedy}); err == nil {
		t.Fatal("greedy accepted on a weighted engine")
	}
	if _, err := we.Query(Query{Algo: AlgoWeightedKCover}); err == nil {
		t.Fatal("wkcover without k accepted")
	}

	un, err := New(testConfig(10, 100, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer un.Close()
	if _, err := un.Query(Query{Algo: AlgoWeightedKCover, K: 2}); err == nil {
		t.Fatal("wkcover accepted on an unweighted engine")
	}

	mixed := testConfig(10, 100, 2, 1, 2)
	mixed.RestoreState = &weighted.BankView{}
	if _, err := New(mixed); err == nil {
		t.Fatal("a class bank restored into an unweighted engine")
	}
}

// TestWeightedQueryCache pins that a weighted snapshot runs its greedy
// once: kcover and wkcover read the same run, the second as a hit, each
// echoing the requested algo.
func TestWeightedQueryCache(t *testing.T) {
	const n, m, k = 30, 1500, 3
	inst := workload.Uniform(n, m, 0.05, 7)
	e, err := New(weightedTestConfig(n, m, k, 9, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Ingest(stream.Drain(stream.Shuffled(inst.G, 1))); err != nil {
		t.Fatal(err)
	}
	first, err := e.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Query(Query{Algo: AlgoWeightedKCover, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if second.Algo != AlgoWeightedKCover {
		t.Fatalf("cache hit echoed algo %q, want the requested wkcover", second.Algo)
	}
	if first.EstimatedCoverage != second.EstimatedCoverage || !sameIntSets(first.Sets, second.Sets) {
		t.Fatalf("cached weighted answer differs: %+v vs %+v", first, second)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 || st.QueryCacheHits != 1 {
		t.Fatalf("queries=%d hits=%d, want 2 and 1 (kcover/wkcover share an entry)", st.Queries, st.QueryCacheHits)
	}
	if !st.Weighted || st.WeightClasses == 0 {
		t.Fatalf("stats weighted=%v classes=%d", st.Weighted, st.WeightClasses)
	}
}

// TestMultiWeightedSnapshotRoundTrip pins snapshot v2 with a mixed
// directory: a weighted and an unweighted namespace persist into one
// container and restore with identical answers, and the unweighted
// frame stays byte-compatible with pre-weighted files (no "weights"
// key).
func TestMultiWeightedSnapshotRoundTrip(t *testing.T) {
	const n, m, k = 40, 2000, 4
	inst := workload.Zipf(n, m, 500, 0.9, 0.7, 3)
	edges := stream.Drain(stream.Shuffled(inst.G, 4))

	multi := NewMulti("")
	defer multi.Close()
	wEng, err := multi.Create("heavy", weightedTestConfig(n, m, k, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	uEng, err := multi.Create("plain", testConfig(n, m, k, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wEng.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if _, err := uEng.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	wantW, err := wEng.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := uEng.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := multi.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if !strings.Contains(raw, `"weights"`) {
		t.Fatal("weighted namespace frame carries no weights config")
	}
	// The unweighted frame must not mention weights at all — that is what
	// keeps pre-weighted v2 files and new unweighted frames byte-identical.
	plainFrame := raw[strings.Index(raw, "plain"):]
	if i := strings.Index(plainFrame, core0Magic); i >= 0 {
		plainFrame = plainFrame[:i]
	}
	if strings.Contains(plainFrame, `"weights"`) {
		t.Fatal("unweighted namespace frame mentions weights")
	}

	fresh := NewMulti("")
	defer fresh.Close()
	if restored, err := fresh.RestoreAll(bytes.NewReader(buf.Bytes())); err != nil || restored != 2 {
		t.Fatalf("restored %d namespaces, err %v", restored, err)
	}
	wBack, _ := fresh.Get("heavy")
	uBack, _ := fresh.Get("plain")
	gotW, err := wBack.Query(Query{Algo: AlgoWeightedKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := uBack.Query(Query{Algo: AlgoKCover, K: k, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if gotW.EstimatedCoverage != wantW.EstimatedCoverage || !sameIntSets(gotW.Sets, wantW.Sets) {
		t.Fatalf("restored weighted namespace (%v, %v) != original (%v, %v)",
			gotW.Sets, gotW.EstimatedCoverage, wantW.Sets, wantW.EstimatedCoverage)
	}
	if gotU.EstimatedCoverage != wantU.EstimatedCoverage || !sameIntSets(gotU.Sets, wantU.Sets) {
		t.Fatalf("restored unweighted namespace (%v, %v) != original (%v, %v)",
			gotU.Sets, gotU.EstimatedCoverage, wantU.Sets, wantU.EstimatedCoverage)
	}
	infos := fresh.List()
	for _, info := range infos {
		if want := info.Name == "heavy"; info.Weighted != want {
			t.Fatalf("namespace %q weighted=%v", info.Name, info.Weighted)
		}
	}
}

// core0Magic is the sketch magic used to delimit the config frame in
// the raw-container scan above.
const core0Magic = "SKCH1"
