package server

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// This file is the observability plane: GET /metrics in the Prometheus
// text exposition format (v0.0.4), surfacing every namespace's cheap
// engine counters (Engine.Counters — atomic reads only, so a scraper
// cannot perturb ingest by riding the shard mailboxes), the log
// accounting of namespaces with a WAL, plus any number
// of extra sources (the wire ingest server contributes its connection,
// frame and backpressure-stall counters).

// MetricsWriter accumulates one scrape in the Prometheus text format.
// Metric families (HELP/TYPE headers) are emitted once, on the first
// sample of each name, so several sources and namespaces can share a
// family as long as their label sets differ.
type MetricsWriter struct {
	buf  bytes.Buffer
	seen map[string]bool
}

// Label is one metric label pair.
type Label struct{ Name, Value string }

func (w *MetricsWriter) sample(name, help, typ string, labels []Label, v float64) {
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	if !w.seen[name] {
		w.seen[name] = true
		w.buf.WriteString("# HELP ")
		w.buf.WriteString(name)
		w.buf.WriteByte(' ')
		w.buf.WriteString(help)
		w.buf.WriteString("\n# TYPE ")
		w.buf.WriteString(name)
		w.buf.WriteByte(' ')
		w.buf.WriteString(typ)
		w.buf.WriteByte('\n')
	}
	w.buf.WriteString(name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.buf.WriteString(l.Name)
			w.buf.WriteString(`="`)
			// Namespace names are [A-Za-z0-9._-] so no escaping is ever
			// needed for them; escape anyway so arbitrary sources are safe.
			for _, r := range l.Value {
				switch r {
				case '\\', '"':
					w.buf.WriteByte('\\')
					w.buf.WriteRune(r)
				case '\n':
					w.buf.WriteString(`\n`)
				default:
					w.buf.WriteRune(r)
				}
			}
			w.buf.WriteByte('"')
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.buf.WriteByte('\n')
}

// Counter emits one sample of a counter family.
func (w *MetricsWriter) Counter(name, help string, labels []Label, v float64) {
	w.sample(name, help, "counter", labels, v)
}

// Gauge emits one sample of a gauge family.
func (w *MetricsWriter) Gauge(name, help string, labels []Label, v float64) {
	w.sample(name, help, "gauge", labels, v)
}

// MetricsSource contributes samples to a /metrics scrape. Sources are
// invoked once per scrape, in registration order, on a writer shared
// with the namespace metrics.
type MetricsSource interface {
	AppendMetrics(w *MetricsWriter)
}

// appendMultiMetrics writes the per-namespace engine counters.
func appendMultiMetrics(w *MetricsWriter, m *Multi) {
	infos := m.List()
	w.Gauge("covserved_namespaces", "Live namespaces in the directory.", nil, float64(len(infos)))
	// Collect the engines under their (sorted) names; List already
	// sorts, and Get may race with deletion, so skip vanished ones.
	names := make([]string, 0, len(infos))
	for _, info := range infos {
		names = append(names, info.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		e, ok := m.Get(name)
		if !ok {
			continue
		}
		c := e.Counters()
		ns := []Label{{"ns", name}}
		w.Counter("covserved_ingested_edges_total", "Edges accepted by Ingest.", ns, float64(c.IngestedEdges))
		w.Counter("covserved_ingest_batches_total", "Ingest calls that delivered edges.", ns, float64(c.Batches))
		w.Counter("covserved_deleted_edges_total", "Delete records accepted (0 on append-only engines).", ns, float64(c.DeletedEdges))
		w.Counter("covserved_ingest_stalls_total", "Shard-mailbox sends that found the mailbox full (backpressure).", ns, float64(c.IngestStalls))
		if e.bars != nil {
			w.Counter("covserved_ingest_bar_drops_total", "Edges the router dropped against their sketch shard's published bar, never copied or enqueued; beside covserved_ingested_edges_total, the share of edges that stop early.", ns, float64(c.BarDrops))
		}
		w.Counter("covserved_queries_total", "Queries served, from the local snapshot or the cluster view (hits included).", ns, float64(c.Queries))
		w.Counter("covserved_query_cache_hits_total", "Queries that needed no new greedy pick: their snapshot's run already held the answer.", ns, float64(c.QueryCacheHits))
		w.Counter("covserved_refreshes_total", "Coordinator merges that actually ran.", ns, float64(c.Refreshes))
		w.Counter("covserved_refresh_seconds_total", "Time spent in the coordinator merges that ran (idle skips add none).", ns, time.Duration(c.RefreshNanos).Seconds())
		w.Counter("covserved_materialize_seconds_total", "Time spent materializing the snapshots' query graphs, folds and full builds, cover index included; a fold runs inside its refresh and is counted in covserved_refresh_seconds_total too.", ns, time.Duration(c.MaterializeNanos).Seconds())
		w.Counter("covserved_graph_folds_total", "Query graphs a refresh carried forward from the previous snapshot's at the cost of its delta (sketch engines only).", ns, float64(c.GraphFolds))
		w.Counter("covserved_graph_builds_total", "Full transposes of a snapshot's state into its query graph: a first query's build, or a fold that compacted; beside covserved_graph_folds_total, the fold share.", ns, float64(c.GraphBuilds))
		w.Counter("covserved_refresh_skips_total", "Refresh calls satisfied by the idle short-circuit.", ns, float64(c.RefreshSkips))
		w.Counter("covserved_refresh_errors_total", "Refreshes that failed, whoever asked for them.", ns, float64(c.RefreshErrors))
		w.Gauge("covserved_snapshot_seq", "Current merged snapshot sequence number.", ns, float64(c.SnapshotSeq))
		w.Gauge("covserved_snapshot_edges", "Ingested-edge count the current snapshot reflects.", ns, float64(c.SnapshotEdges))
		w.Gauge("covserved_snapshot_kept_edges", "Edges the current snapshot's merged state holds.", ns, float64(c.SnapshotKeptEdges))
		w.Gauge("covserved_snapshot_p_star", "Element-sampling probability p* of the current snapshot's merged state (dynamic: the smaller of the sketch bar and 2^-level of the decoded L0 level; 0 before the first snapshot).", ns, c.SnapshotPStar)
		w.Gauge("covserved_shard_kept_edges", "Edges the shard states held after the last freeze, summed over shards.", ns, float64(c.ShardKeptEdges))
		if e.mode.Name() == ModeSketch {
			const cutsHelp = "Cuts the shards answered refreshes with: full (the whole shard state) or delta (only what changed since the last publish)."
			w.Counter("covserved_shard_cuts_total", cutsHelp, []Label{{"ns", name}, {"kind", "delta"}}, float64(e.deltaCuts.Load()))
			w.Counter("covserved_shard_cuts_total", cutsHelp, []Label{{"ns", name}, {"kind", "full"}}, float64(e.fullCuts.Load()))
			w.Counter("covserved_refresh_delta_edges_total", "Edges the delta cuts carried; per refresh, beside covserved_shard_kept_edges, the share of shard state re-cut.", ns, float64(e.deltaEdges.Load()))
		}
		if e.wal != nil {
			st := e.WALStats()
			w.Counter("covserved_wal_appends_total", "Frames appended to the write-ahead log.", ns, float64(st.Appends))
			w.Counter("covserved_wal_fsyncs_total", "Fsyncs the log issued (group commit covers several appends with one).", ns, float64(st.Syncs))
			w.Counter("covserved_wal_rotations_total", "Log segments sealed.", ns, float64(st.Rotations))
			w.Gauge("covserved_wal_segments", "Log segments on disk (sealed + current).", ns, float64(st.Segments))
			w.Gauge("covserved_wal_unsynced_edges", "Logged edges not yet known to be on stable storage (what an OS crash would lose).", ns, float64(st.NextOffset-st.SyncedOffset))
		}
	}
}

// NewMetricsHandler serves GET /metrics over a namespace directory plus
// any extra sources. Scrapes send nothing through the shard mailboxes:
// they read atomic counters and, for a namespace with a WAL, take the
// log's two short mutexes (wal.Log.Stats), so a scrape can wait behind
// one in-flight append or fsync but never behind a refresh.
func NewMetricsHandler(m *Multi, sources ...MetricsSource) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			MethodNotAllowed(rw, "GET, HEAD")
			return
		}
		var w MetricsWriter
		appendMultiMetrics(&w, m)
		for _, src := range sources {
			if src != nil {
				src.AppendMetrics(&w)
			}
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rw.Header().Set("Content-Length", strconv.Itoa(w.buf.Len()))
		rw.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			rw.Write(w.buf.Bytes())
		}
	})
}
