package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bipartite"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/greedy"
	"repro/internal/l0"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/streamcover"
)

// ladder replays the workload's generated input in-process through each
// layer's public functions, one span per call, and turns the span
// totals into the per-layer metrics. Every ingest row warms its state
// with epoch 0 and measures epoch 1, so the numbers are steady-state;
// the rows are cumulative (generator → wire → WAL → route → sketch on
// the way in, clone → merge → graph → index → greedy on the way out),
// so a row minus the rows it contains is the gap the ROADMAP wants
// explained.
type ladder struct {
	tr     *tracer
	inst   *instance
	budget int
	dir    string
	out    map[string]float64

	batches [][]bipartite.Edge // epoch 1, cut into wire-sized batches
	warm    [][]bipartite.Edge // epoch 0, likewise
	edges   int                // edges in one epoch
}

const ladderBatch = 1024

func newLadder(tr *tracer, inst *instance, budget int, dir string) *ladder {
	l := &ladder{tr: tr, inst: inst, budget: budget, dir: dir, out: map[string]float64{}, edges: inst.edges()}
	cut := func(epoch int) [][]bipartite.Edge {
		all := make([]bipartite.Edge, inst.edges())
		inst.fill(all, epoch, 0)
		var out [][]bipartite.Edge
		for off := 0; off < len(all); off += ladderBatch {
			out = append(out, all[off:min(off+ladderBatch, len(all))])
		}
		return out
	}
	l.warm, l.batches = cut(0), cut(1)
	return l
}

// call runs fn inside a span and returns how long it took.
func (l *ladder) call(name string, batch int, fn func()) time.Duration {
	id := l.tr.begin(name, int64(batch))
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.tr.end(id)
	return d
}

// row opens a parent span for one ladder row; the returned func closes
// it and reports the row's wall time.
func (l *ladder) row(name string) func() time.Duration {
	id := l.tr.begin(name, -1)
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		l.tr.end(id)
		return d
	}
}

func (l *ladder) config(engine server.ModeName) server.Config {
	return server.Config{
		NumSets: numSets, K: sketchK, Eps: sketchEps, Seed: sketchSeed,
		EdgeBudget: l.budget, Shards: shards, Engine: engine,
	}
}

func perUnit(d time.Duration, units int) float64 { return float64(d.Nanoseconds()) / float64(units) }
func ms(d time.Duration) float64                 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64                 { return float64(d.Nanoseconds()) / 1e3 }

// must turns a ladder-internal failure into a panic that runLadder
// reports as an error: every call here is on input the harness built.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("ladder: %w", err))
	}
}

func mustV[T any](v T, err error) T {
	must(err)
	return v
}

// runLadder runs every row, then measures what the spans themselves
// cost.
func runLadder(rc *runCtx, budget int, tr *tracer) (out map[string]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			panic(p)
		}
	}()
	dir := filepath.Join(rc.tmp, "ladder")
	must(os.MkdirAll(dir, 0o777))
	l := newLadder(tr, rc.inst, budget, dir)
	l.generator()
	l.wireCodec()
	rows := l.coreIngest() + l.engineIngest("server.ingest", nil)
	l.wireLoopback()
	l.walRows()
	l.engineIngest("server.ingest_wal", &server.WALConfig{Dir: filepath.Join(dir, "engine-wal"), Fsync: "interval"})
	l.opsIngest()
	l.httpIngest()
	l.facadeIngest()
	l.queryRows()
	l.l0Rows()
	l.clusterRows()

	// What the spans cost on the cumulative ingest rows: the per-span cost
	// (empty calls timed with the tracer on and off) times the spans those
	// rows opened, over the rows' time without them. Timing the rows
	// themselves both ways drowns in this machine's run-to-run noise.
	const probes = 200_000
	empty := func(spans bool) time.Duration {
		probe := *l
		probe.tr = newTracer(spans)
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			probe.call("noop", i, func() {})
		}
		return time.Since(t0)
	}
	spanCost := (empty(true) - empty(false)) / probes
	spans := time.Duration(2*len(l.batches)+3) * spanCost
	l.out["trace.overhead_share"] = float64(spans) / float64(rows-spans)
	return l.out, nil
}

func (l *ladder) generator() {
	buf := make([]bipartite.Edge, ladderBatch)
	var total time.Duration
	i := 0
	must(l.inst.eachBatch(1, 2, ladderBatch, func(ep, off, n int) error {
		total += l.call("workload.fill", i, func() { l.inst.fill(buf[:n], ep, off) })
		i++
		return nil
	}))
	l.out["workload.gen.ns_per_edge"] = perUnit(total, l.edges)
}

func (l *ladder) wireCodec() {
	var (
		body, frame      []byte
		enc, dec         time.Duration
		encOps, decOps   time.Duration
		frameBytes       int
		edges            []bipartite.Edge
		ops              = make([]bipartite.Op, ladderBatch)
		decoded          []bipartite.Op
		scratch          []byte
		offset, opOffset int64
	)
	for i, b := range l.batches {
		enc += l.call("wire.AppendBatch", i, func() {
			body = mustV(wire.AppendBatch(body[:0], offset, b))
			frame = wire.AppendFrame(frame[:0], wire.FrameBatch, body)
		})
		frameBytes += len(frame)
		dec += l.call("wire.DecodeBatch", i, func() {
			_, payload, err := wire.ReadFrame(bytes.NewReader(frame), scratch, 0)
			must(err)
			scratch = payload[:0]
			mustV(wire.DecodeBatch(payload, &edges))
		})
		offset += int64(len(b))

		for j, e := range b {
			ops[j] = bipartite.Op{Kind: bipartite.OpKind(j & 1), Edge: e}
		}
		encOps += l.call("wire.AppendOpBatch", i, func() {
			body = mustV(wire.AppendOpBatch(body[:0], opOffset, ops[:len(b)]))
			frame = wire.AppendFrame(frame[:0], wire.FrameOpBatch, body)
		})
		decOps += l.call("wire.DecodeOpBatch", i, func() {
			_, payload, err := wire.ReadFrame(bytes.NewReader(frame), scratch, 0)
			must(err)
			scratch = payload[:0]
			mustV(wire.DecodeOpBatch(payload, &decoded))
		})
		opOffset += int64(len(b))
	}
	l.out["wire.append_batch.ns_per_edge"] = perUnit(enc, l.edges)
	l.out["wire.decode_batch.ns_per_edge"] = perUnit(dec, l.edges)
	l.out["wire.append_op_batch.ns_per_op"] = perUnit(encOps, l.edges)
	l.out["wire.decode_op_batch.ns_per_op"] = perUnit(decOps, l.edges)
	l.out["wire.bytes_per_edge"] = float64(frameBytes) / float64(l.edges)
}

// coreIngest is the sketch alone: routing, then AddEdges batch by
// batch, then the single-threaded whole-stream pass every server number
// is read against. It returns the wall time of the AddEdges row.
func (l *ladder) coreIngest() time.Duration {
	part := distributed.NewPartitioner(shards, sketchSeed+0x5eed)
	var route time.Duration
	sink := 0
	for i, b := range l.batches {
		route += l.call("distributed.Partitioner.Route", i, func() {
			for _, e := range b {
				sink += part.Route(e)
			}
		})
	}
	runtime.KeepAlive(sink)
	l.out["distributed.route.ns_per_edge"] = perUnit(route, l.edges)

	params := l.config("").Params()
	sk := core.MustNewSketch(params)
	for _, b := range l.warm {
		sk.AddEdges(b)
	}
	before := sk.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	done := l.row("core.add_edges")
	for i, b := range l.batches {
		l.call("core.Sketch.AddEdges", i, func() { sk.AddEdges(b) })
	}
	total := done()
	runtime.ReadMemStats(&m1)
	after := sk.Stats()
	seen := after.EdgesSeen - before.EdgesSeen
	dropped := (after.DropHash - before.DropHash) + (after.DropDegree - before.DropDegree) + (after.DupEdges - before.DupEdges)
	l.out["core.add_edges.ns_per_edge"] = perUnit(total, l.edges)
	l.out["core.add_edges.kept_share"] = float64(seen-dropped) / float64(seen)
	l.out["core.add_edges.allocs_per_batch"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(l.batches))

	pass := core.MustNewSketch(params)
	d := l.call("core.offline_pass", -1, func() {
		for _, b := range l.warm {
			pass.AddEdges(b)
		}
		for _, b := range l.batches {
			pass.AddEdges(b)
		}
	})
	l.out["core.offline_pass.ns_per_edge"] = perUnit(d, 2*l.edges)
	return total
}

// engineIngest feeds a two-shard engine batch by batch and drains it
// (Stats rides the shard mailboxes). With walCfg the engine logs first.
// It returns the row's wall time and leaves persistence rows behind
// when the engine is durable.
func (l *ladder) engineIngest(name string, walCfg *server.WALConfig) time.Duration {
	cfg := l.config("")
	cfg.WAL = walCfg
	e := mustV(server.New(cfg))
	defer e.Close()
	for _, b := range l.warm {
		mustV(e.Ingest(b))
	}
	mustV(e.Stats())
	done := l.row(name)
	for i, b := range l.batches {
		l.call("server.Engine.Ingest", i, func() { mustV(e.Ingest(b)) })
	}
	l.call("server.Engine.Stats", -1, func() { mustV(e.Stats()) })
	total := done()
	l.out[name+".ns_per_edge"] = perUnit(total, l.edges)
	if walCfg != nil {
		l.persistence(e, cfg)
	}
	return total
}

// persistence times the checkpoint of a durable engine and a restore
// from the file it wrote.
func (l *ladder) persistence(e *server.Engine, cfg server.Config) {
	path := filepath.Join(l.dir, "ladder.skch")
	d := l.call("server.CheckpointEngine", -1, func() { mustV(server.CheckpointEngine(e, path)) })
	l.out["server.checkpoint.ms"] = ms(d)
	data := mustV(os.ReadFile(path))
	cfg.WAL = nil
	d = l.call("server.NewFromSnapshot", -1, func() {
		restored := mustV(server.NewFromSnapshot(bytes.NewReader(data), cfg))
		restored.Close()
	})
	l.out["server.restore.ms"] = ms(d)
}

func (l *ladder) wireLoopback() {
	multi := server.NewMulti(server.DefaultNamespace)
	defer multi.Close()
	mustV(multi.Create(server.DefaultNamespace, l.config("")))
	srv := wire.NewServer(multi, wire.Options{})
	ln := mustV(net.Listen("tcp", "127.0.0.1:0"))
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	defer func() { srv.Close(); <-served }()
	conn := mustV(wire.Dial(ln.Addr().String(), wire.Hello{Namespace: server.DefaultNamespace}))
	defer conn.Abort()
	for _, b := range l.warm {
		must(conn.Send(b))
	}
	must(conn.Flush())
	done := l.row("wire.loopback")
	for i, b := range l.batches {
		l.call("wire.Conn.Send", i, func() { must(conn.Send(b)) })
	}
	l.call("wire.Conn.Flush", -1, func() { must(conn.Flush()) })
	l.out["wire.loopback.ns_per_edge"] = perUnit(done(), l.edges)
}

func (l *ladder) walRows() {
	opts := wal.Options{Dir: filepath.Join(l.dir, "wal-edges"), Policy: wal.SyncEvery}
	log := mustV(wal.Open(opts, 0, nil))
	var total time.Duration
	for i, b := range l.batches {
		total += l.call("wal.Log.Append", i, func() { mustV(log.Append(b)) })
	}
	st := log.Stats()
	l.out["wal.append.ns_per_edge"] = perUnit(total, l.edges)
	l.out["wal.fsyncs"] = float64(st.Syncs)
	l.out["wal.bytes_per_edge"] = float64(dirBytes(opts.Dir)) / float64(l.edges)
	must(log.Close())

	replayed := 0
	var reopened *wal.Log
	d := l.call("wal.Open", -1, func() {
		reopened = mustV(wal.Open(opts, 0, func(_ int64, edges []bipartite.Edge) error {
			replayed += len(edges)
			return nil
		}))
	})
	if replayed != l.edges {
		panic(fmt.Errorf("ladder: WAL replayed %d of %d edges", replayed, l.edges))
	}
	l.out["wal.replay.ns_per_edge"] = perUnit(d, replayed)
	d = l.call("wal.Log.TruncateBefore", -1, func() { must(reopened.TruncateBefore(reopened.NextOffset())) })
	l.out["wal.truncate.ms"] = ms(d)
	must(reopened.Close())

	opLog := mustV(wal.OpenOps(wal.Options{Dir: filepath.Join(l.dir, "wal-ops"), Policy: wal.SyncEvery}, 0, nil))
	ops := make([]bipartite.Op, ladderBatch)
	total = 0
	for i, b := range l.batches {
		for j, e := range b {
			ops[j] = bipartite.Op{Kind: bipartite.OpKind(j & 1), Edge: e}
		}
		total += l.call("wal.Log.AppendOps", i, func() { mustV(opLog.AppendOps(ops[:len(b)])) })
	}
	l.out["wal.append_ops.ns_per_op"] = perUnit(total, l.edges)
	must(opLog.Close())
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// opsIngest is the op plane as the tenants workload drives it: a
// dynamic engine holding epoch 0, then inserts of epoch 1 and deletes
// of epoch 0 in pure batches.
func (l *ladder) opsIngest() {
	e := mustV(server.New(l.config(server.ModeDynamic)))
	defer e.Close()
	for _, b := range l.warm {
		mustV(e.IngestOps(bipartite.Inserts(b)))
	}
	mustV(e.Stats())
	ops := make([]bipartite.Op, ladderBatch)
	done := l.row("server.ingest_ops")
	pass := func(kind bipartite.OpKind, batches [][]bipartite.Edge) {
		for i, b := range batches {
			for j, ed := range b {
				ops[j] = bipartite.Op{Kind: kind, Edge: ed}
			}
			l.call("server.Engine.IngestOps", i, func() { mustV(e.IngestOps(ops[:len(b)])) })
		}
	}
	pass(bipartite.OpInsert, l.batches)
	pass(bipartite.OpDelete, l.warm)
	l.call("server.Engine.Stats", -1, func() { mustV(e.Stats()) })
	l.out["server.ingest_ops.ns_per_op"] = perUnit(done(), 2*l.edges)
}

// httpIngest drives the JSON ingest handler directly (no sockets), on
// the first fifth of the epoch: JSON costs tens of times more per edge
// than every other row.
func (l *ladder) httpIngest() {
	e := mustV(server.New(l.config("")))
	defer e.Close()
	h := server.NewHTTPHandler(e, server.HTTPOptions{})
	var (
		body       []byte
		total      time.Duration
		bodyBytes  int
		edges      int
		batch      []bipartite.Edge
		flushBatch = func(i int) {
			body = appendEdgesJSON(body[:0], batch)
			bodyBytes += len(body)
			edges += len(batch)
			req := httptest.NewRequest(http.MethodPost, "/v1/edges", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			total += l.call("server.http.ingest", i, func() { h.ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK {
				panic(fmt.Errorf("ladder: POST /v1/edges: %d %s", rec.Code, rec.Body.String()))
			}
			batch = batch[:0]
		}
	)
	for i, b := range l.batches[:max(1, len(l.batches)/5)] {
		batch = append(batch, b...)
		if len(batch) >= 4096 {
			flushBatch(i)
		}
	}
	if len(batch) > 0 {
		flushBatch(-1)
	}
	mustV(e.Stats())
	l.out["server.http_ingest.ns_per_edge"] = perUnit(total, edges)
	l.out["server.http_ingest.bytes_per_edge"] = float64(bodyBytes) / float64(edges)
}

// facadeIngest is the public streamcover.Service over the same engine:
// its own cost is the edge-type conversion.
func (l *ladder) facadeIngest() {
	svc := mustV(streamcover.NewService(numSets, streamcover.ServiceOptions{
		Options: streamcover.Options{Eps: sketchEps, Seed: sketchSeed, EdgeBudget: l.budget},
		K:       sketchK, Shards: shards,
	}))
	defer svc.Close()
	conv := make([]streamcover.Edge, ladderBatch)
	feed := func(batches [][]bipartite.Edge, timed bool) {
		for i, b := range batches {
			for j, e := range b {
				conv[j] = streamcover.Edge{Set: e.Set, Elem: e.Elem}
			}
			if timed {
				l.call("streamcover.Service.Ingest", i, func() { must(svc.Ingest(conv[:len(b)])) })
			} else {
				must(svc.Ingest(conv[:len(b)]))
			}
		}
		mustV(svc.Stats())
	}
	feed(l.warm, false)
	done := l.row("streamcover.ingest")
	feed(l.batches, true)
	l.out["streamcover.ingest.ns_per_edge"] = perUnit(done(), l.edges)
}

// queryRows is the way out: the stages of a refresh one by one on two
// shard sketches, then the engine's own refresh, query and HTTP paths.
func (l *ladder) queryRows() {
	const reps = 5
	params := l.config("").Params()
	part := distributed.NewPartitioner(shards, sketchSeed+0x5eed)
	shardSk := mustV(distributed.NewSketches(params, shards))
	for _, batches := range [][][]bipartite.Edge{l.warm, l.batches} {
		for _, b := range batches {
			for w, sub := range part.Split(b) {
				shardSk[w].AddEdges(sub)
			}
		}
	}
	var clone, merge, graph, index, cover, write, read time.Duration
	for i := 0; i < reps; i++ {
		clones := make([]*core.Sketch, len(shardSk))
		clone += l.call("core.Sketch.Clone", i, func() {
			for w, sk := range shardSk {
				clones[w] = sk.Clone()
			}
		})
		var merged *core.Sketch
		merge += l.call("core.MergeAll", i, func() { merged = mustV(core.MergeAll(params, clones...)) })
		var g *bipartite.Graph
		graph += l.call("core.Sketch.Graph", i, func() { g, _ = merged.Graph() })
		index += l.call("bipartite.Graph.BuildCoverIndex", i, func() { g.BuildCoverIndex() })
		cover += l.call("greedy.MaxCover", i, func() { greedy.MaxCover(g, sketchK) })
		var buf bytes.Buffer
		write += l.call("core.Sketch.WriteTo", i, func() { mustV(merged.WriteTo(&buf)) })
		read += l.call("core.ReadSketch", i, func() { mustV(core.ReadSketch(bytes.NewReader(buf.Bytes()))) })
	}
	l.out["core.clone.ms"] = ms(clone) / reps
	l.out["core.merge_all.ms"] = ms(merge) / reps
	l.out["core.graph.ms"] = ms(graph) / reps
	l.out["bipartite.build_cover_index.ms"] = ms(index) / reps
	l.out["greedy.max_cover.ms"] = ms(cover) / reps
	l.out["core.write_to.ms"] = ms(write) / reps
	l.out["core.read_sketch.ms"] = ms(read) / reps

	e := mustV(server.New(l.config("")))
	defer e.Close()
	for _, batches := range [][][]bipartite.Edge{l.warm, l.batches} {
		for _, b := range batches {
			mustV(e.Ingest(b))
		}
	}
	mustV(e.Refresh())
	h := server.NewHTTPHandler(e, server.HTTPOptions{})
	q := server.Query{Algo: server.AlgoKCover, K: sketchK}
	const hits = 200
	var dirty, idle, miss, hit, httpQ time.Duration
	for i := 0; i < reps; i++ {
		// One more batch makes the engine dirty; re-sending known edges
		// leaves the sketch's content (and so the work) unchanged.
		mustV(e.Ingest(l.batches[i]))
		dirty += l.call("server.Engine.Refresh", i, func() { mustV(e.Refresh()) })
		miss += l.call("server.Engine.Query miss", i, func() { mustV(e.Query(q)) })
		for j := 0; j < hits; j++ {
			idle += l.call("server.Engine.Refresh idle", i, func() { mustV(e.Refresh()) })
			hit += l.call("server.Engine.Query hit", i, func() { mustV(e.Query(q)) })
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/query?algo=kcover&k=%d", sketchK), nil)
			rec := httptest.NewRecorder()
			httpQ += l.call("server.http.query", i, func() { h.ServeHTTP(rec, req) })
		}
	}
	l.out["server.refresh.ms"] = ms(dirty) / reps
	l.out["server.query_miss.ms"] = ms(miss) / reps
	l.out["server.refresh_idle.us"] = us(idle) / (reps * hits)
	l.out["server.query_hit.us"] = us(hit) / (reps * hits)
	l.out["server.http_query.us"] = us(httpQ) / (reps * hits)
}

func (l *ladder) l0Rows() {
	params := l.config(server.ModeDynamic).DynamicParams()
	sam := l0.NewSampler(params)
	ops := make([]bipartite.Op, ladderBatch)
	var apply time.Duration
	for i, b := range l.batches {
		for j, e := range b {
			ops[j] = bipartite.Op{Kind: bipartite.OpInsert, Edge: e}
		}
		apply += l.call("l0.Sampler.Apply", i, func() { sam.Apply(ops[:len(b)]) })
	}
	l.out["l0.apply.ns_per_op"] = perUnit(apply, l.edges)
	const reps = 3
	var merge, rec time.Duration
	for i := 0; i < reps; i++ {
		into := l0.NewSampler(params)
		merge += l.call("l0.Sampler.Merge", i, func() { must(into.Merge(sam)) })
		rec += l.call("l0.Sampler.Recover", i, func() { mustV(sam.Recover()) })
	}
	l.out["l0.merge.ms"] = ms(merge) / reps
	l.out["l0.recover.ms"] = ms(rec) / reps
	var buf bytes.Buffer
	mustV(sam.WriteTo(&buf))
	l.out["l0.state_bytes"] = float64(buf.Len())
}

// clusterRows is one peer pulling another in-process: B serves its
// state over a real loopback HTTP server, A pulls and answers from the
// merged view. B is made dirty between rounds so that every pull moves
// the whole blob, as in the cluster-pair workload.
func (l *ladder) clusterRows() {
	const reps = 5
	node := func(batches [][]bipartite.Edge, peers ...string) (*server.Multi, *server.Engine, *cluster.Node) {
		multi := server.NewMulti(server.DefaultNamespace)
		e := mustV(multi.Create(server.DefaultNamespace, l.config("")))
		for _, b := range batches {
			mustV(e.Ingest(b))
		}
		return multi, e, mustV(cluster.NewNode(multi, cluster.Options{Peers: peers, PullInterval: -1}))
	}
	multiB, engB, nodeB := node(l.warm)
	defer multiB.Close()
	defer nodeB.Close()
	handlerB := cluster.NewHandler(nodeB, server.HTTPOptions{})
	srvB := httptest.NewServer(handlerB)
	defer srvB.Close()
	multiA, _, nodeA := node(l.batches, srvB.URL)
	defer multiA.Close()
	defer nodeA.Close()

	var serve, pull, query time.Duration
	var blob int
	q := server.Query{Algo: server.AlgoKCover, K: sketchK, Refresh: true}
	for i := 0; i < reps; i++ {
		mustV(engB.Ingest(l.warm[i]))
		req := httptest.NewRequest(http.MethodGet, "/v1/cluster/sketch", nil)
		rec := httptest.NewRecorder()
		serve += l.call("server.ServeState", i, func() { handlerB.ServeHTTP(rec, req) })
		blob = rec.Body.Len()
		pull += l.call("cluster.Node.PullNow", i, func() { must(nodeA.PullNow()) })
		query += l.call("cluster.Node.Query", i, func() { mustV(nodeA.Query(server.DefaultNamespace, q)) })
	}
	l.out["cluster.serve_state.ms"] = ms(serve) / reps
	l.out["cluster.pull_now.ms"] = ms(pull) / reps
	l.out["cluster.pull.bytes"] = float64(blob)
	l.out["cluster.query.ms"] = ms(query) / reps
}
