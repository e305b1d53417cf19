package server

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bipartite"
)

// metricsScrape is one parsed text-format exposition: sample line →
// value, family name → TYPE.
type metricsScrape struct {
	samples map[string]float64
	types   map[string]string
	helps   map[string]int // family → number of HELP lines (must be 1)
}

func parseMetrics(t *testing.T, body string) *metricsScrape {
	t.Helper()
	s := &metricsScrape{
		samples: make(map[string]float64),
		types:   make(map[string]string),
		helps:   make(map[string]int),
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			s.helps[fields[0]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if fields[1] != "counter" && fields[1] != "gauge" {
				t.Fatalf("unknown metric type in %q", line)
			}
			if prev, dup := s.types[fields[0]]; dup {
				t.Fatalf("family %s typed twice (%s, %s)", fields[0], prev, fields[1])
			}
			s.types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		key := line[:sp]
		if _, dup := s.samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		s.samples[key] = v
		family := key
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if _, ok := s.types[family]; !ok {
			t.Fatalf("sample %q before its TYPE line", key)
		}
	}
	for family, n := range s.helps {
		if n != 1 {
			t.Fatalf("family %s has %d HELP lines", family, n)
		}
		if _, ok := s.types[family]; !ok {
			t.Fatalf("family %s has HELP but no TYPE", family)
		}
	}
	return s
}

func (s *metricsScrape) value(t *testing.T, key string) float64 {
	t.Helper()
	v, ok := s.samples[key]
	if !ok {
		t.Fatalf("metric %q missing from scrape", key)
	}
	return v
}

type extraSource struct{ calls int }

func (x *extraSource) AppendMetrics(w *MetricsWriter) {
	x.calls++
	w.Counter("covserved_test_extra_total", "Extra source sample.", []Label{{"src", `quo"te`}}, 3)
}

func TestMetricsEndpoint(t *testing.T) {
	m := NewMulti("")
	defer m.Close()
	cfg := Config{NumSets: 32, K: 4, Eps: 0.5, Seed: 1, Shards: 2}
	// beta is a dynamic engine, so the scrape covers a namespace that can
	// move the delete counter beside one that cannot; alpha alone is
	// durable, so the WAL families must carry its label and no other.
	walCfg := &WALConfig{Dir: t.TempDir(), Fsync: "off"}
	for ns, engine := range map[string]ModeName{"alpha": ModeSketch, "beta": ModeDynamic} {
		cfg.Engine, cfg.WAL = engine, nil
		if ns == "alpha" {
			cfg.WAL = walCfg
		}
		if _, err := m.Create(ns, cfg); err != nil {
			t.Fatalf("Create(%q): %v", ns, err)
		}
	}
	extra := &extraSource{}
	h := NewMetricsHandler(m, extra)

	scrape := func() *metricsScrape {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /metrics: status %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		return parseMetrics(t, rec.Body.String())
	}

	// Scripted activity on alpha: ingest, two identical queries (second
	// hits the cache), an explicit refresh.
	alpha, _ := m.Get("alpha")
	edges := make([]bipartite.Edge, 200)
	for i := range edges {
		edges[i] = bipartite.Edge{Set: uint32(i % 32), Elem: uint32(i)}
	}
	if _, err := alpha.Ingest(edges); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if _, err := alpha.Query(Query{Algo: AlgoKCover, K: 3, Refresh: true}); err != nil {
		t.Fatalf("Query 1: %v", err)
	}
	if _, err := alpha.Query(Query{Algo: AlgoKCover, K: 3}); err != nil {
		t.Fatalf("Query 2: %v", err)
	}
	if _, err := alpha.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}

	s1 := scrape()

	// Expected families, with their types.
	wantTypes := map[string]string{
		"covserved_namespaces":                "gauge",
		"covserved_ingested_edges_total":      "counter",
		"covserved_ingest_batches_total":      "counter",
		"covserved_deleted_edges_total":       "counter",
		"covserved_ingest_stalls_total":       "counter",
		"covserved_ingest_bar_drops_total":    "counter",
		"covserved_queries_total":             "counter",
		"covserved_query_cache_hits_total":    "counter",
		"covserved_refreshes_total":           "counter",
		"covserved_refresh_seconds_total":     "counter",
		"covserved_refresh_skips_total":       "counter",
		"covserved_materialize_seconds_total": "counter",
		"covserved_graph_folds_total":         "counter",
		"covserved_graph_builds_total":        "counter",
		"covserved_refresh_errors_total":      "counter",
		"covserved_snapshot_seq":              "gauge",
		"covserved_snapshot_edges":            "gauge",
		"covserved_snapshot_kept_edges":       "gauge",
		"covserved_snapshot_p_star":           "gauge",
		"covserved_shard_kept_edges":          "gauge",
		"covserved_shard_state_bytes":         "gauge",
		"covserved_dynamic_floor":             "gauge",
		"covserved_shard_cuts_total":          "counter",
		"covserved_refresh_delta_edges_total": "counter",
		"covserved_wal_appends_total":         "counter",
		"covserved_wal_fsyncs_total":          "counter",
		"covserved_wal_rotations_total":       "counter",
		"covserved_wal_segments":              "gauge",
		"covserved_wal_unsynced_edges":        "gauge",
		"covserved_test_extra_total":          "counter",
	}
	for family, typ := range wantTypes {
		if got := s1.types[family]; got != typ {
			t.Fatalf("family %s: type %q, want %q", family, got, typ)
		}
	}

	if got := s1.value(t, "covserved_namespaces"); got != 2 {
		t.Fatalf("namespaces = %v, want 2", got)
	}
	if got := s1.value(t, `covserved_ingested_edges_total{ns="alpha"}`); got != 200 {
		t.Fatalf("alpha ingested = %v, want 200", got)
	}
	if got := s1.value(t, `covserved_ingested_edges_total{ns="beta"}`); got != 0 {
		t.Fatalf("beta ingested = %v, want 0", got)
	}
	if got := s1.value(t, `covserved_deleted_edges_total{ns="beta"}`); got != 0 {
		t.Fatalf("beta deleted = %v, want 0", got)
	}
	if got := s1.value(t, `covserved_queries_total{ns="alpha"}`); got != 2 {
		t.Fatalf("alpha queries = %v, want 2", got)
	}
	if got := s1.value(t, `covserved_query_cache_hits_total{ns="alpha"}`); got != 1 {
		t.Fatalf("alpha cache hits = %v, want 1", got)
	}
	if got := s1.value(t, `covserved_snapshot_edges{ns="alpha"}`); got != 200 {
		t.Fatalf("alpha snapshot edges = %v, want 200", got)
	}
	// Nothing evicted at this budget: the merged state and the two shards
	// between them hold every edge once.
	for _, family := range []string{"covserved_snapshot_kept_edges", "covserved_shard_kept_edges"} {
		if got := s1.value(t, family+`{ns="alpha"}`); got != 200 {
			t.Fatalf("alpha %s = %v, want 200", family, got)
		}
	}
	// Nothing evicted means every element is sampled; beta has published
	// no snapshot yet.
	if got := s1.value(t, `covserved_snapshot_p_star{ns="alpha"}`); got != 1 {
		t.Fatalf("alpha snapshot p* = %v, want 1", got)
	}
	if got := s1.value(t, `covserved_snapshot_p_star{ns="beta"}`); got != 0 {
		t.Fatalf("beta snapshot p* = %v before its first snapshot, want 0", got)
	}
	// One dirty refresh ran on alpha (the explicit Refresh after it was an
	// idle skip), none on beta: refresh time is summed around builds only.
	if got := s1.value(t, `covserved_refreshes_total{ns="alpha"}`); got != 1 {
		t.Fatalf("alpha refreshes = %v, want 1", got)
	}
	if got := s1.value(t, `covserved_refresh_seconds_total{ns="alpha"}`); !(got > 0 && got < 60) {
		t.Fatalf("alpha refresh seconds = %v, want a small positive time", got)
	}
	if got := s1.value(t, `covserved_refresh_seconds_total{ns="beta"}`); got != 0 {
		t.Fatalf("beta refresh seconds = %v, want 0", got)
	}
	// The first query built alpha's graph in full, and the refresh after it
	// was a skip, so nothing was folded; beta materialized nothing.
	for key, want := range map[string]float64{
		`covserved_graph_builds_total{ns="alpha"}`: 1, `covserved_graph_folds_total{ns="alpha"}`: 0,
		`covserved_graph_builds_total{ns="beta"}`: 0, `covserved_graph_folds_total{ns="beta"}`: 0,
		`covserved_materialize_seconds_total{ns="beta"}`: 0,
	} {
		if got := s1.value(t, key); got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	if got := s1.value(t, `covserved_materialize_seconds_total{ns="alpha"}`); !(got > 0 && got < 60) {
		t.Fatalf("alpha materialize seconds = %v, want a small positive time", got)
	}
	// One logged batch in one segment; under -wal-fsync off nothing was
	// synced, so all of it is what an OS crash would lose. beta has no WAL
	// and therefore no sample in any WAL family.
	for family, want := range map[string]float64{
		"covserved_wal_appends_total": 1, "covserved_wal_fsyncs_total": 0, "covserved_wal_rotations_total": 0,
		"covserved_wal_segments": 1, "covserved_wal_unsynced_edges": 200,
	} {
		if got := s1.value(t, family+`{ns="alpha"}`); got != want {
			t.Fatalf("alpha %s = %v, want %v", family, got, want)
		}
		if _, ok := s1.samples[family+`{ns="beta"}`]; ok {
			t.Fatalf("%s has a sample for beta, which has no WAL", family)
		}
	}
	// The one refresh was alpha's first, so both shards cut in full. The cut
	// families describe sketch shards only: beta, a dynamic engine, has no
	// sample in them.
	for key, want := range map[string]float64{
		`covserved_shard_cuts_total{ns="alpha",kind="full"}`:  2,
		`covserved_shard_cuts_total{ns="alpha",kind="delta"}`: 0,
		`covserved_refresh_delta_edges_total{ns="alpha"}`:     0,
	} {
		if got := s1.value(t, key); got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	for key := range s1.samples {
		if strings.Contains(key, `ns="beta"`) && (strings.HasPrefix(key, "covserved_shard_cuts_total") || strings.HasPrefix(key, "covserved_refresh_delta_edges_total")) {
			t.Fatalf("%s: a cut sample for beta, which is not a sketch engine", key)
		}
	}
	// Label values are escaped.
	if _, ok := s1.samples[`covserved_test_extra_total{src="quo\"te"}`]; !ok {
		t.Fatalf("escaped extra-source sample missing; have %v", s1.samples)
	}

	// More activity, then a second scrape: every counter is monotone
	// non-decreasing, and the touched ones strictly grew.
	if _, err := alpha.Ingest(edges[:50]); err != nil {
		t.Fatalf("Ingest 2: %v", err)
	}
	if _, err := alpha.Query(Query{Algo: AlgoKCover, K: 2, Refresh: true}); err != nil {
		t.Fatalf("Query 3: %v", err)
	}
	beta, _ := m.Get("beta")
	if _, err := beta.IngestOps(append(bipartite.Inserts(edges[:2]), bipartite.Deletes(edges[:1])...)); err != nil {
		t.Fatalf("IngestOps: %v", err)
	}
	// On a dynamic namespace p* is the smaller of the sketch bar and
	// 2^−level of the L0 level that decoded: the gauge reads what the
	// snapshot answers with.
	betaSnap, err := beta.Refresh()
	if err != nil {
		t.Fatalf("beta Refresh: %v", err)
	}
	s2 := scrape()
	if got := s2.value(t, `covserved_snapshot_p_star{ns="beta"}`); got != betaSnap.pStar() || got != 1 {
		t.Fatalf("beta snapshot p* = %v, snapshot says %v, want 1 (one live edge decodes at level 0)", got, betaSnap.pStar())
	}
	for key, v1 := range s1.samples {
		family := key
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if s1.types[family] != "counter" {
			continue
		}
		if v2 := s2.value(t, key); v2 < v1 {
			t.Fatalf("counter %s went backwards: %v → %v", key, v1, v2)
		}
	}
	if got := s2.value(t, `covserved_ingested_edges_total{ns="alpha"}`); got != 250 {
		t.Fatalf("alpha ingested after second scrape = %v, want 250", got)
	}
	if got := s2.value(t, `covserved_wal_unsynced_edges{ns="alpha"}`); got != 250 {
		t.Fatalf("alpha unsynced edges after a second logged batch = %v, want 250", got)
	}
	if got := s2.value(t, `covserved_deleted_edges_total{ns="beta"}`); got != 1 {
		t.Fatalf("beta deleted after second scrape = %v, want 1", got)
	}
	if got := s2.value(t, `covserved_deleted_edges_total{ns="alpha"}`); got != 0 {
		t.Fatalf("alpha deleted after second scrape = %v, want 0", got)
	}
	if got := s2.value(t, `covserved_ingested_edges_total{ns="beta"}`); got != 3 {
		t.Fatalf("beta ingested after second scrape = %v, want 3", got)
	}
	if got := s2.value(t, `covserved_queries_total{ns="alpha"}`); got != 3 {
		t.Fatalf("alpha queries after second scrape = %v, want 3", got)
	}
	if v1, v2 := s1.value(t, `covserved_refresh_seconds_total{ns="alpha"}`), s2.value(t, `covserved_refresh_seconds_total{ns="alpha"}`); v2 <= v1 {
		t.Fatalf("alpha refresh seconds did not grow across a dirty refresh: %v → %v", v1, v2)
	}
	// The second refresh cut deltas, and empty ones: the 50 edges were all
	// re-sent, so no shard stored anything. It was one delta on the snapshot
	// whose graph the first query built, so it carried the graph forward;
	// beta's refresh, which no query read, built nothing.
	for key, want := range map[string]float64{
		`covserved_shard_cuts_total{ns="alpha",kind="full"}`:  2,
		`covserved_shard_cuts_total{ns="alpha",kind="delta"}`: 2,
		`covserved_refresh_delta_edges_total{ns="alpha"}`:     0,
		`covserved_graph_folds_total{ns="alpha"}`:             1,
		`covserved_graph_builds_total{ns="alpha"}`:            1,
		`covserved_graph_builds_total{ns="beta"}`:             0,
	} {
		if got := s2.value(t, key); got != want {
			t.Fatalf("%s after the second refresh = %v, want %v", key, got, want)
		}
	}
	// An idle refresh is a skip and costs no refresh time.
	if _, err := alpha.Refresh(); err != nil {
		t.Fatalf("idle Refresh: %v", err)
	}
	s3 := scrape()
	if v2, v3 := s2.value(t, `covserved_refresh_seconds_total{ns="alpha"}`), s3.value(t, `covserved_refresh_seconds_total{ns="alpha"}`); v3 != v2 {
		t.Fatalf("idle refresh moved refresh seconds: %v → %v", v2, v3)
	}
	if v2, v3 := s2.value(t, `covserved_refresh_skips_total{ns="alpha"}`), s3.value(t, `covserved_refresh_skips_total{ns="alpha"}`); v3 != v2+1 {
		t.Fatalf("idle refresh not counted as a skip: %v → %v", v2, v3)
	}
	if extra.calls != 3 {
		t.Fatalf("extra source invoked %d times, want 3", extra.calls)
	}

	// Ten edges of ten new elements, nothing evicted at this budget: the
	// next deltas carry exactly those.
	fresh := make([]bipartite.Edge, 10)
	for i := range fresh {
		fresh[i] = bipartite.Edge{Set: uint32(i), Elem: uint32(1000 + i)}
	}
	if _, err := alpha.Ingest(fresh); err != nil {
		t.Fatalf("Ingest 3: %v", err)
	}
	if _, err := alpha.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	s4 := scrape()
	if cuts, carried := s4.value(t, `covserved_shard_cuts_total{ns="alpha",kind="delta"}`), s4.value(t, `covserved_refresh_delta_edges_total{ns="alpha"}`); cuts != 4 || carried != 10 {
		t.Fatalf("after ten new edges: %v delta cuts carrying %v edges, want 4 carrying 10", cuts, carried)
	}

	// Method handling: POST is refused, HEAD answers headers only.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics: status %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("HEAD", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("HEAD /metrics: status %d, body %d bytes", rec.Code, rec.Body.Len())
	}
	if cl := rec.Header().Get("Content-Length"); cl == "" || cl == "0" {
		t.Fatalf("HEAD Content-Length = %q", cl)
	}
}

// TestMetricsBarDrops: a namespace exposes the records its router dropped
// against the shards' published bars. On a sketch namespace over a budget
// small enough to evict, the second batch of new elements mostly stops at
// the router: the counter grows, stays within what the shards report as
// hash drops (every router drop is one of those) and below the edges
// ingested. On a dynamic namespace the bar is the floor's: after a refresh
// decodes a deep level, the floor gauge reads one level below it, and
// inserts and deletes of elements above the floor's bar stop at the router
// — counted as drops, and the deletes among them as deletes all the same.
func TestMetricsBarDrops(t *testing.T) {
	m := NewMulti("")
	defer m.Close()
	cfg := Config{NumSets: 32, K: 4, Eps: 0.5, Seed: 1, Shards: 2, EdgeBudget: 64}
	if _, err := m.Create("tight", cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Engine = ModeDynamic
	if _, err := m.Create("dyn", cfg); err != nil {
		t.Fatal(err)
	}
	h := NewMetricsHandler(m)
	scrape := func() *metricsScrape {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return parseMetrics(t, rec.Body.String())
	}
	tight, _ := m.Get("tight")
	batch := func(from int) []bipartite.Edge {
		edges := make([]bipartite.Edge, 4000)
		for i := range edges {
			edges[i] = bipartite.Edge{Set: uint32(i % 32), Elem: uint32(from + i)}
		}
		return edges
	}
	if _, err := tight.Ingest(batch(0)); err != nil {
		t.Fatal(err)
	}
	// A barrier through every mailbox: the shards have applied the first
	// batch, and published the bars it left, before the second is routed.
	if _, err := tight.Stats(); err != nil {
		t.Fatal(err)
	}
	before := scrape().value(t, `covserved_ingest_bar_drops_total{ns="tight"}`)
	if _, err := tight.Ingest(batch(4000)); err != nil {
		t.Fatal(err)
	}
	st, err := tight.Stats()
	if err != nil {
		t.Fatal(err)
	}
	hashDrops := int64(0)
	for _, sh := range st.ShardStats {
		hashDrops += sh.DropHash
	}
	s := scrape()
	drops := s.value(t, `covserved_ingest_bar_drops_total{ns="tight"}`)
	if s.types["covserved_ingest_bar_drops_total"] != "counter" {
		t.Fatalf("bar drops typed %q", s.types["covserved_ingest_bar_drops_total"])
	}
	if drops-before < 2000 || drops > float64(hashDrops) || drops >= s.value(t, `covserved_ingested_edges_total{ns="tight"}`) {
		t.Fatalf("bar drops %v (%v after the first batch), shard hash drops %d, ingested 8000: want most of the second batch, within the hash drops", drops, before, hashDrops)
	}
	if _, ok := s.samples[`covserved_dynamic_floor{ns="tight"}`]; ok {
		t.Fatal("a floor sample for a sketch namespace")
	}

	dyn, _ := m.Get("dyn")
	first := batch(0)
	if _, err := dyn.Ingest(first); err != nil {
		t.Fatal(err)
	}
	if s := scrape(); s.value(t, `covserved_ingest_bar_drops_total{ns="dyn"}`) != 0 || s.value(t, `covserved_dynamic_floor{ns="dyn"}`) != 0 {
		t.Fatal("a dynamic namespace dropped or raised its floor before its first refresh")
	}
	snap, err := dyn.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	_, level := snapshotView(t, snap)
	if level < 3 {
		t.Fatalf("the dynamic namespace decoded at level %d; the test needs a deep one", level)
	}
	s = scrape()
	if got := s.value(t, `covserved_dynamic_floor{ns="dyn"}`); got != float64(level-1) {
		t.Fatalf("floor %v after decoding level %d, want %d", got, level, level-1)
	}
	ops := append(bipartite.Inserts(batch(4000)), bipartite.Deletes(first)...)
	if _, err := dyn.IngestOps(ops); err != nil {
		t.Fatal(err)
	}
	s = scrape()
	drops = s.value(t, `covserved_ingest_bar_drops_total{ns="dyn"}`)
	// An element stays below the floor's bar with probability 2^−floor.
	if kept := float64(len(ops)) / float64(int(1)<<(level-1)); drops < float64(len(ops))-3*kept {
		t.Fatalf("the dynamic router dropped %v of %d ops above floor %d", drops, len(ops), level-1)
	}
	if got := s.value(t, `covserved_deleted_edges_total{ns="dyn"}`); got != float64(len(first)) {
		t.Fatalf("deleted %v, want %d: a delete dropped at the router still counts", got, len(first))
	}
	if st, err = dyn.Stats(); err != nil {
		t.Fatal(err)
	}
	var seen int64
	for _, sh := range st.ShardStats {
		seen += sh.EdgesSeen
	}
	if want := int64(len(first) + len(ops)); seen != want {
		t.Fatalf("the dynamic shards account %d ops, want %d: dropped ops count as applied", seen, want)
	}
}
