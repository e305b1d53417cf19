package weighted

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/stream"
	"repro/internal/workload"
)

// bankWorkloads is the full generator matrix the serialization and
// merge property tests sweep — every workload family the repository
// ships.
func bankWorkloads() map[string]workload.Instance {
	return map[string]workload.Instance{
		"uniform":          workload.Uniform(40, 2500, 0.05, 11),
		"zipf":             workload.Zipf(50, 3000, 700, 0.9, 0.7, 7),
		"planted_kcover":   workload.PlantedKCover(40, 2500, 4, 0.9, 25, 5),
		"planted_setcover": workload.PlantedSetCover(30, 2000, 5, 20, 9),
		"blog_topics":      workload.BlogTopics(40, 1500, 120, 3),
		"large_sets":       workload.LargeSets(12, 4000, 0.3, 13),
		"clustered":        workload.Clustered(30, 2000, 5, 17),
	}
}

// testWeightOf spreads elements over several geometric classes and
// leaves a residue class at weight zero, exercising the skip path.
func testWeightOf(e uint32) float64 {
	return float64((e * 2654435761) % 9)
}

func testBankOptions() Options {
	return Options{Eps: 0.4, Seed: 77, NumElems: 3000, EdgeBudget: 2500}
}

// serializeBank returns the canonical bytes of a bank or a bank view.
func serializeBank(t testing.TB, b io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustSolve runs Solve (a bank's or a bank view's) and fails the test on
// error.
func mustSolve(t *testing.T, b interface{ Solve(int) (*Result, error) }, k int) *Result {
	t.Helper()
	res, err := b.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(a, b *Result) bool {
	if a.EstimatedCoverage != b.EstimatedCoverage || a.Classes != b.Classes ||
		a.EdgesStored != b.EdgesStored || len(a.Sets) != len(b.Sets) {
		return false
	}
	for i := range a.Sets {
		if a.Sets[i] != b.Sets[i] {
			return false
		}
	}
	return true
}

// TestBankMatchesKCover pins that a Bank fed edge batches answers
// exactly like the one-shot KCover over the same stream (KCover is the
// bank in stream clothing, so this guards the refactor).
func TestBankMatchesKCover(t *testing.T) {
	const k = 5
	for name, inst := range bankWorkloads() {
		n := inst.G.NumSets()
		opt := testBankOptions()
		oneshot, err := KCover(stream.Shuffled(inst.G, 3), n, k, testWeightOf, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := NewBank(n, k, opt, testWeightOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		edges := stream.Drain(stream.Shuffled(inst.G, 3))
		for i := 0; i < len(edges); i += 97 {
			j := i + 97
			if j > len(edges) {
				j = len(edges)
			}
			b.AddEdges(edges[i:j])
		}
		if got := b.EdgesSeen(); got != int64(len(edges)) {
			t.Fatalf("%s: bank saw %d of %d edges", name, got, len(edges))
		}
		res := mustSolve(t, b, k)
		if !sameResult(res, oneshot) {
			t.Fatalf("%s: bank %+v != one-shot %+v", name, res, oneshot)
		}
	}
}

// TestBankSerializationRoundTrip is the satellite property test: for
// every workload generator, WriteTo → ReadBank reproduces the bank
// exactly — byte-identical re-serialization, identical accounting and
// identical answers.
func TestBankSerializationRoundTrip(t *testing.T) {
	const k = 4
	for name, inst := range bankWorkloads() {
		n := inst.G.NumSets()
		opt := testBankOptions()
		b, err := NewBank(n, k, opt, testWeightOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.AddStream(stream.Shuffled(inst.G, 5))

		raw := serializeBank(t, b)
		back, err := ReadBank(bytes.NewReader(raw), n, k, opt, testWeightOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := serializeBank(t, back); !bytes.Equal(raw, got) {
			t.Fatalf("%s: restored bank re-serializes to different bytes (%d vs %d)", name, len(got), len(raw))
		}
		if back.Classes() != b.Classes() || back.Edges() != b.Edges() ||
			back.Elements() != b.Elements() || back.EdgesSeen() != b.EdgesSeen() {
			t.Fatalf("%s: restored bank accounting differs: classes %d/%d edges %d/%d elems %d/%d seen %d/%d",
				name, back.Classes(), b.Classes(), back.Edges(), b.Edges(),
				back.Elements(), b.Elements(), back.EdgesSeen(), b.EdgesSeen())
		}
		if want, got := mustSolve(t, b, k), mustSolve(t, back, k); !sameResult(want, got) {
			t.Fatalf("%s: restored bank answers %+v, original %+v", name, got, want)
		}
	}
}

// TestBankMergeEqualsSingle pins class-bank merge-composability: banks
// built over disjoint shards of the stream freeze into views that merge
// into exactly the view of the whole stream's bank — per-class consumed
// counters included — both in one MergeBankViews call and thawed view by
// view into a bank (the restore path).
func TestBankMergeEqualsSingle(t *testing.T) {
	const k = 4
	for name, inst := range bankWorkloads() {
		n := inst.G.NumSets()
		opt := testBankOptions()
		whole, err := NewBank(n, k, opt, testWeightOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		whole.AddStream(stream.Shuffled(inst.G, 9))
		want := serializeBank(t, whole)

		edges := stream.Drain(stream.Shuffled(inst.G, 9))
		const parts = 3
		cuts := make([]*BankView, parts)
		for p := range cuts {
			shard, err := NewBank(n, k, opt, testWeightOf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			shard.AddEdges(edges[p*len(edges)/parts : (p+1)*len(edges)/parts])
			cuts[p] = shard.Freeze()
		}

		merged, err := MergeBankViews(n, k, opt, testWeightOf, whole.EdgesSeen(), cuts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := serializeBank(t, merged); !bytes.Equal(want, got) {
			t.Fatalf("%s: MergeBankViews of %d shards differs from the single-pass bank", name, parts)
		}

		pairwise, err := NewBank(n, k, opt, testWeightOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cut := range cuts {
			if err := pairwise.MergeView(cut); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// MergeView leaves stream accounting untouched (like
		// core.Sketch.MergeView); align it before the byte comparison.
		pairwise.edgesSeen = whole.EdgesSeen()
		if got := serializeBank(t, pairwise); !bytes.Equal(want, got) {
			t.Fatalf("%s: pairwise merge differs from the single-pass bank", name)
		}
	}
}

// TestBankFreezeSharesNoStorage pins cut isolation: ingest after Freeze
// never shows through the earlier cut, and the bank is not disturbed by
// having been cut.
func TestBankFreezeSharesNoStorage(t *testing.T) {
	inst := workload.Zipf(30, 1500, 300, 0.9, 0.7, 21)
	b, err := NewBank(30, 3, testBankOptions(), testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	edges := stream.Drain(stream.Shuffled(inst.G, 1))
	half := len(edges) / 2
	b.AddEdges(edges[:half])
	cut := b.Freeze()
	want := serializeBank(t, cut)

	b.AddEdges(edges[half:])
	if got := serializeBank(t, cut); !bytes.Equal(want, got) {
		t.Fatal("ingest after Freeze changed the bytes of the earlier cut")
	}
	full, err := NewBank(30, 3, testBankOptions(), testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	full.AddEdges(edges)
	if got, wantFull := serializeBank(t, b), serializeBank(t, full); !bytes.Equal(got, wantFull) {
		t.Fatal("a bank cut halfway differs from a bank fed everything")
	}
}

// goldenBank rebuilds the bank behind testdata/bank_v1.wbnk: four weight
// classes at budget 150, two of them evicted (classes 1 and 2) and two
// below budget (0 and 3).
func goldenBank(t testing.TB) (numSets, k int, opt Options, edges []bipartite.Edge) {
	t.Helper()
	inst := workload.Zipf(30, 600, 200, 0.9, 0.7, 1)
	return 30, 4, Options{Eps: 0.4, Seed: 42, NumElems: 600, EdgeBudget: 150},
		stream.Drain(stream.Shuffled(inst.G, 3))
}

// TestBankGoldenBytes pins the WBNK1 format across the move to views:
// testdata/bank_v1.wbnk is what the commit before it wrote for the
// golden bank (Bank.WriteTo over thawed class sketches; its MergeBanks of
// three shard banks wrote the same bytes). The view path must decode
// those bytes, re-emit them, and produce them from a live bank and from
// merged shard cuts — an old node and a new one exchange state both ways.
func TestBankGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "bank_v1.wbnk"))
	if err != nil {
		t.Fatal(err)
	}
	n, k, opt, edges := goldenBank(t)
	back, err := ReadBank(bytes.NewReader(golden), n, k, opt, testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeBank(t, back), golden) {
		t.Fatal("golden blob does not survive decode + encode")
	}
	evicted, below := 0, 0
	for _, c := range back.classes {
		if _, _, ok := c.view.Bar(); ok {
			evicted++
		} else if st := c.view.Stats(); st.EdgesKept < st.Budget {
			below++
		}
	}
	if back.Classes() != 4 || evicted != 2 || below != 2 {
		t.Fatalf("golden bank has %d classes, %d evicted, %d below budget", back.Classes(), evicted, below)
	}

	live, err := NewBank(n, k, opt, testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	live.AddEdges(edges)
	if !bytes.Equal(serializeBank(t, live.Freeze()), golden) {
		t.Fatal("a live bank over the golden stream no longer freezes to the golden bytes")
	}
	cuts := make([]*BankView, 3)
	for p := range cuts {
		shard, err := NewBank(n, k, opt, testWeightOf)
		if err != nil {
			t.Fatal(err)
		}
		shard.AddEdges(edges[p*len(edges)/3 : (p+1)*len(edges)/3])
		cuts[p] = shard.Freeze()
	}
	merged, err := MergeBankViews(n, k, opt, testWeightOf, int64(len(edges)), cuts...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeBank(t, merged), golden) {
		t.Fatal("merged shard cuts do not write the golden bytes")
	}
	// Folding the old node's blob in again changes nothing but the
	// per-class consumed totals, which add up.
	again, err := MergeBankViews(n, k, opt, testWeightOf, int64(len(edges)), append(cuts, back)...)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := mustSolve(t, merged, k), mustSolve(t, again, k); !sameResult(want, got) {
		t.Fatalf("folding the golden blob in again answers %+v, before %+v", got, want)
	}
}

// TestBankValidation covers constructor and decoder error paths.
func TestBankValidation(t *testing.T) {
	if _, err := NewBank(0, 1, Options{}, testWeightOf); err == nil {
		t.Fatal("numSets=0 accepted")
	}
	if _, err := NewBank(5, 0, Options{}, testWeightOf); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewBank(5, 1, Options{}, nil); err == nil {
		t.Fatal("nil weight oracle accepted")
	}

	b, err := NewBank(5, 2, testBankOptions(), testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(bipartite.Edge{Set: 1, Elem: 3})
	raw := serializeBank(t, b)

	if _, err := ReadBank(bytes.NewReader([]byte("NOPE!")), 5, 2, testBankOptions(), testWeightOf); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A different seed derives different class params: the frames must be
	// rejected instead of silently re-keyed.
	otherOpt := testBankOptions()
	otherOpt.Seed++
	if _, err := ReadBank(bytes.NewReader(raw), 5, 2, otherOpt, testWeightOf); err == nil {
		t.Fatal("bank restored under mismatched options")
	}
	if _, err := ReadBank(bytes.NewReader(raw[:len(raw)-2]), 5, 2, testBankOptions(), testWeightOf); err == nil {
		t.Fatal("truncated bank accepted")
	}

	other, err := NewBank(5, 3, testBankOptions(), testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MergeView(other.Freeze()); err == nil {
		t.Fatal("thaw of an incompatible bank view accepted")
	}
	if _, err := MergeBankViews(5, 2, testBankOptions(), testWeightOf, 0, b.Freeze(), other.Freeze()); err == nil {
		t.Fatal("merge of incompatible bank views accepted")
	}
}

// TestBankStatsAggregate sanity-checks the aggregated accounting.
func TestBankStatsAggregate(t *testing.T) {
	inst := workload.Uniform(20, 1000, 0.08, 3)
	b, err := NewBank(20, 3, testBankOptions(), testWeightOf)
	if err != nil {
		t.Fatal(err)
	}
	n := b.AddStream(stream.Shuffled(inst.G, 2))
	st := b.Stats()
	if st.EdgesSeen != int64(n) {
		t.Fatalf("stats saw %d of %d edges", st.EdgesSeen, n)
	}
	if st.EdgesKept != b.Edges() || st.ElementsKept != b.Elements() {
		t.Fatalf("stats kept %d/%d, bank %d/%d", st.EdgesKept, st.ElementsKept, b.Edges(), b.Elements())
	}
	if st.PStar <= 0 || st.PStar > 1 || math.IsNaN(st.PStar) {
		t.Fatalf("bad aggregate p* %v", st.PStar)
	}
}

// allocatedBy reports the heap bytes f allocated (TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadBank: arbitrary bytes either fail to decode or decode to a view
// whose re-encoding decodes to itself; the decoder never panics and
// allocates in proportion to the bytes it was handed, whatever class
// count and frame lengths they announce.
func FuzzReadBank(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "bank_v1.wbnk"))
	if err != nil {
		f.Fatal(err)
	}
	n, k, opt, _ := goldenBank(f)
	const header = len(BankMagic) + 8 + 4
	for _, seed := range [][]byte{
		golden, golden[:len(golden)-1], golden[:len(golden)/2], golden[:header+12], golden[:header+11],
		golden[:header], golden[:header-1], []byte(BankMagic), nil, append(slices.Clone(golden), 0),
	} {
		f.Add(seed)
	}
	// A class count and a frame length far beyond the blob.
	huge := slices.Clone(golden[:header+12])
	binary.LittleEndian.PutUint32(huge[header-4:], 1<<31)
	binary.LittleEndian.PutUint64(huge[header+4:], 1<<40)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *BankView
		var err error
		// The blob read whole, one copy per frame and the decoded arrays —
		// or, for a frame that is not in canonical order, the sketch that
		// normalizes it (a slot and a map entry against the 12 bytes an
		// element spends at least) — plus what the fuzz worker's own
		// goroutines allocate meanwhile.
		budget := uint64(64*len(data)) + 1<<20
		if alloc := allocatedBy(func() { got, err = ReadBank(bytes.NewReader(data), n, k, opt, testWeightOf) }); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		raw := serializeBank(t, got)
		again, err := ReadBank(bytes.NewReader(raw), n, k, opt, testWeightOf)
		if err != nil {
			t.Fatalf("re-reading a decoded bank: %v", err)
		}
		if !bytes.Equal(serializeBank(t, again), raw) {
			t.Fatal("WriteTo → ReadBank → WriteTo changed the bytes")
		}
	})
}
