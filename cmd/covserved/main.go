// Command covserved serves coverage queries over live edge streams: a
// multi-tenant directory of sharded concurrent ingest engines
// (internal/server) behind an HTTP JSON API. Each namespace is an
// isolated dataset with its own shard sketches and snapshots; edges
// arrive in batches, and queries run the paper's algorithms on a merged
// snapshot without stalling ingest.
//
// Usage:
//
//	covserved -n 1000 -k 10 -addr :8080
//	covserved -n 1000 -k 10 -shards 8 -merge-every 2s -snapshot-file state.skch
//	covserved -n 1000 -k 10 -ns production
//	covserved -n 1000 -k 10 -addr :8080 -node-id a -peers http://b:8080,http://c:8080
//
// The sketch flags (-n, -k, -eps, …) configure the bootstrap namespace,
// named by -ns ("default" unless overridden). Further namespaces are
// created and deleted at runtime through the /v1/ns API — including
// weighted-coverage namespaces: POST /v1/ns with a "weights" object
// ({"table": [w0, w1, …], "default": w}) creates a dataset whose
// kcover queries maximize total covered weight; snapshots persist the
// weight table, so weighted namespaces survive restarts like any
// other. -engine dynamic (or POST /v1/ns with "engine": "dynamic")
// selects the insert/delete L0-sampler engine (DESIGN.md §14) instead
// of the sketch: the only mode that accepts delete ops — DELETE
// /v1/…/edges, POST bodies with "ops", and wire op batches retract
// edges; the other modes reject them with 409. Its snapshot is the
// sketch's view of the L0 level that decoded, so it serves every query
// the sketch does. See the README for the full endpoint reference:
//
//	POST   /v1/edges                bulk ingest (default namespace;
//	                                "ops" bodies carry deletes)
//	DELETE /v1/edges                bulk retract (dynamic engine only)
//	GET    /v1/query?algo=kcover&k=10[&refresh=1]
//	GET    /v1/stats                engine accounting
//	POST   /v1/snapshot             merge (+persist all namespaces)
//	GET    /v1/healthz              liveness
//	GET    /v1/ns                   list namespaces
//	POST   /v1/ns                   create a namespace
//	GET    /v1/ns/{name}            namespace directory entry
//	DELETE /v1/ns/{name}            delete a namespace
//	POST   /v1/ns/{name}/edges      namespace-scoped ingest
//	DELETE /v1/ns/{name}/edges      namespace-scoped retract
//	GET    /v1/ns/{name}/query      namespace-scoped query
//	GET    /v1/ns/{name}/stats      namespace-scoped accounting
//	POST   /v1/ns/{name}/snapshot   merge namespace (+persist all)
//	GET    …/snapshot               local merged state, as bytes (+ETag)
//	GET    /metrics                 Prometheus text exposition: per-
//	                                namespace engine counters plus the
//	                                wire-plane counters when -wire-addr
//	                                is set and the cluster-plane ones
//	                                when -peers is
//
// With -wire-addr, covserved additionally serves the binary wire ingest
// protocol (internal/wire, DESIGN.md §13) on a second listener:
// persistent connections stream CRC-framed edge batches straight into
// the engine's pooled ingest buffers, with backpressure via TCP flow
// control when shard mailboxes fill and periodic acks carrying the
// ingested-edge watermark, so producers get an order of magnitude more
// throughput than JSON posts (bench/: ingest_edges_per_s against
// http_ingest_edges_per_s) without losing the exactly-once contract —
// named streams resume from the acknowledged watermark after a
// reconnect. covcli -wire and the bench/ harness drive it.
//
// With -peers, covserved runs as a cluster node (internal/cluster):
// each node ingests its own stream partition, pulls its peers'
// serialized sketches every -pull-every, and answers /v1/query and
// /v1/ns/{name}/query from the cluster-wide merged view. Three more
// routes appear:
//
//	GET    /v1/cluster/sketch?ns=…  this node's local state blob (what
//	                                peers pull; conditional via ETag, and
//	                                a 226 delta on the previous state
//	                                with A-IM: cov-delta)
//	GET    /v1/cluster/stats        per-peer anti-entropy accounting
//	POST   /v1/cluster/pull         synchronous pull round (read your
//	                                cluster-wide writes before a query)
//
// With -snapshot-file, POST …/snapshot persists every namespace into
// one file (snapshot format v2) and covserved restores all of them at
// startup when the file exists. Files written by pre-namespace versions
// (single-sketch format v1) restore into the bootstrap namespace, so
// old deployments upgrade in place. Use cmd/covcli to replay an
// instance file against a running server — optionally into a specific
// namespace via its -ns flag — and verify the answer against the
// offline single-pass algorithm.
//
// With -wal-dir, every namespace additionally runs over a write-ahead
// log (DESIGN.md §12): accepted batches hit disk before the ingest
// workers see them (-wal-fsync picks the durability/latency trade-off),
// and startup recovery replays whatever log tail the snapshot file does
// not cover — including namespaces created after the last snapshot,
// which come back from their config sidecar and full log replay.
// -autosnapshot-every checkpoints all namespaces to -snapshot-file on a
// period, truncating the logs as it goes. SIGINT/SIGTERM shut the
// server down gracefully: in-flight requests finish (10s deadline),
// mailboxes drain, and a final checkpoint is cut when -snapshot-file is
// set.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		n          = flag.Int("n", 0, "number of sets (required)")
		m          = flag.Int("m", 0, "number of elements, if known (tunes the budget only)")
		k          = flag.Int("k", 10, "solution size the sketch is provisioned for")
		eps        = flag.Float64("eps", 0.5, "accuracy parameter in (0,1]")
		seed       = flag.Uint64("seed", 1, "hash seed (determinism)")
		budget     = flag.Int("budget", 0, "edge budget override (0 = paper formula)")
		space      = flag.Float64("space-factor", 0, "multiply the formula budget (0 = off)")
		shards     = flag.Int("shards", 4, "ingest worker shards")
		queue      = flag.Int("queue", 64, "per-shard queue depth, in sub-batches of about 1024/shards edges")
		mergeEvery = flag.Duration("merge-every", 0, "periodic snapshot merge (0 = on demand only)")
		engine     = flag.String("engine", "", "engine mode for the bootstrap namespace: sketch (default), dynamic")
		nsName     = flag.String("ns", server.DefaultNamespace, "bootstrap namespace the sketch flags configure (and the unprefixed routes serve)")
		snapFile   = flag.String("snapshot-file", "", "persist/restore all namespaces here (v2; v1 files restore into -ns)")
		maxBatch   = flag.Int("max-batch", 1<<20, "largest accepted ingest batch, in edges")
		maxBody    = flag.Int64("max-body-bytes", 0, "largest accepted request body (0 = derive from -max-batch)")
		peersFlag  = flag.String("peers", "", "comma-separated base URLs of the other cluster nodes (enables cluster mode)")
		nodeID     = flag.String("node-id", "", "this node's name in cluster headers and stats (default: the listen address)")
		pullEvery  = flag.Duration("pull-every", 2*time.Second, "anti-entropy pull interval in cluster mode")
		walDir     = flag.String("wal-dir", "", "write-ahead-log root directory (enables durability; one subdirectory per namespace)")
		walFsync   = flag.String("wal-fsync", "", "WAL fsync policy: always, interval (default) or off")
		walFsyncIv = flag.Duration("wal-fsync-interval", 0, "fsync period for -wal-fsync=interval (default 100ms)")
		walSegSize = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (default 64 MiB)")
		autosnap   = flag.Duration("autosnapshot-every", 0, "checkpoint all namespaces to -snapshot-file on this period (0 = off)")
		wireAddr   = flag.String("wire-addr", "", "listen address for the binary wire ingest protocol (empty = disabled)")
	)
	flag.Parse()
	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "covserved: -n (number of sets) is required")
		os.Exit(2)
	}
	if err := server.ValidateNamespaceName(*nsName); err != nil {
		fmt.Fprintf(os.Stderr, "covserved: -ns: %v\n", err)
		os.Exit(2)
	}

	cfg := server.Config{
		NumSets:     *n,
		NumElems:    *m,
		K:           *k,
		Eps:         *eps,
		Seed:        *seed,
		EdgeBudget:  *budget,
		SpaceFactor: *space,
		Shards:      *shards,
		QueueDepth:  *queue,
		MergeEvery:  *mergeEvery,
		Engine:      server.ModeName(*engine),
		// A failed background merge is otherwise invisible (no request
		// carries its error); the engine counts every failure in
		// stats.refresh_errors and hands the first one here, logged once so
		// a flapping disk or a shutdown race cannot flood the log.
		OnRefreshError: func(err error) {
			fmt.Fprintf(os.Stderr, "covserved: background merge failed (first occurrence; see stats refresh_errors): %v\n", err)
		},
	}

	if *autosnap > 0 && *snapFile == "" {
		fmt.Fprintln(os.Stderr, "covserved: -autosnapshot-every needs -snapshot-file")
		os.Exit(2)
	}
	multi := server.NewMulti(*nsName)
	defer multi.Close()
	if *walDir != "" {
		// Arm durability before any restore or create: restored namespaces
		// then replay their WAL tails, and fresh ones log from edge one.
		multi.SetDurability(&server.WALConfig{
			Dir:           *walDir,
			Fsync:         *walFsync,
			FsyncInterval: *walFsyncIv,
			SegmentBytes:  *walSegSize,
		})
	}
	if *snapFile != "" {
		data, err := os.ReadFile(*snapFile)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			// Only a missing file means "first start": serving empty here
			// would let the next checkpoint rename over the unread state.
			fmt.Fprintf(os.Stderr, "covserved: reading snapshot %s: %v\n", *snapFile, err)
			os.Exit(1)
		}
		if err == nil {
			if err := restore(multi, data, &cfg); err != nil {
				fmt.Fprintf(os.Stderr, "covserved: restoring %s: %v\n", *snapFile, err)
				os.Exit(1)
			}
			if v, ok := cfg.RestoreState.(*core.View); ok {
				fmt.Fprintf(os.Stderr, "covserved: restored v1 sketch (%d kept edges) from %s into namespace %s\n",
					v.Stats().EdgesKept, *snapFile, *nsName)
			} else if cfg.RestoreState != nil {
				fmt.Fprintf(os.Stderr, "covserved: restored %s state from %s into namespace %s\n",
					cfg.Engine, *snapFile, *nsName)
			} else {
				fmt.Fprintf(os.Stderr, "covserved: restored %d namespace(s) from %s\n",
					len(multi.List()), *snapFile)
			}
		}
	}
	// Namespaces with a WAL but no container frame — created after the
	// last snapshot, or never snapshotted — come back from log replay.
	if recovered, err := multi.RecoverNamespaces(); err != nil {
		fmt.Fprintf(os.Stderr, "covserved: recovering namespaces from %s: %v\n", *walDir, err)
		os.Exit(1)
	} else if len(recovered) > 0 {
		fmt.Fprintf(os.Stderr, "covserved: recovered namespace(s) %s from WAL replay\n",
			strings.Join(recovered, ", "))
	}
	// Bootstrap the flag-configured namespace unless the snapshot already
	// brought it back (its persisted config then wins over the flags).
	if _, ok := multi.Get(*nsName); !ok {
		if _, err := multi.Create(*nsName, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "covserved: %v\n", err)
			os.Exit(1)
		}
	}

	httpOpt := server.HTTPOptions{
		MaxBatchEdges: *maxBatch,
		MaxBodyBytes:  *maxBody,
		SnapshotPath:  *snapFile,
	}
	var handler http.Handler
	var node *cluster.Node
	if *peersFlag != "" {
		// Cluster mode: ingest stays local, queries answer from the
		// cluster-wide merged view, and peers exchange serialized state
		// over /v1/cluster/sketch (see internal/cluster).
		id := *nodeID
		if id == "" {
			id = *addr
		}
		var err error
		node, err = cluster.NewNode(multi, cluster.Options{
			NodeID:       id,
			Peers:        strings.Split(*peersFlag, ","),
			PullInterval: *pullEvery,
			OnPullError: func(peer, ns string, err error) {
				fmt.Fprintf(os.Stderr, "covserved: pull from %s ns %q: %v\n", peer, ns, err)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "covserved: %v\n", err)
			os.Exit(2)
		}
		handler = cluster.NewHandler(node, httpOpt)
		fmt.Fprintf(os.Stderr, "covserved: cluster node %s with %d peer(s), pulling every %s\n",
			id, len(node.Stats().Peers), *pullEvery)
	} else {
		handler = server.NewMultiHandler(multi, httpOpt)
	}

	// The wire ingest plane: a second listener speaking the binary
	// protocol, sharing the HTTP plane's namespace directory (and batch
	// cap). Its counters ride the /metrics endpoint.
	var wireSrv *wire.Server
	var metricsSources []server.MetricsSource
	if node != nil {
		metricsSources = append(metricsSources, node)
	}
	if *wireAddr != "" {
		wireSrv = wire.NewServer(multi, wire.Options{
			MaxBatchEdges: *maxBatch,
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "covserved: wire: %v\n", err)
			},
		})
		metricsSources = append(metricsSources, wireSrv)
		wireLn, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "covserved: wire listener: %v\n", err)
			os.Exit(1)
		}
		go func() {
			if err := wireSrv.Serve(wireLn); err != nil {
				fmt.Fprintf(os.Stderr, "covserved: wire listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "covserved: wire ingest on %s\n", wireLn.Addr())
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", server.NewMetricsHandler(multi, metricsSources...))
	mux.Handle("/", handler)
	handler = mux

	stopAutosnap := func() {}
	if *autosnap > 0 {
		stopAutosnap = multi.StartAutosnapshot(*snapFile, *autosnap, func(err error) {
			fmt.Fprintf(os.Stderr, "covserved: autosnapshot: %v\n", err)
		})
		fmt.Fprintf(os.Stderr, "covserved: autosnapshotting to %s every %s\n", *snapFile, *autosnap)
	}

	fmt.Fprintf(os.Stderr, "covserved: serving ns=%s n=%d k=%d eps=%g shards=%d on %s\n",
		*nsName, *n, *k, *eps, *shards, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "covserved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, finish in-flight requests (with
	// a deadline so a stuck client cannot wedge the exit), stop the
	// background planes, then cut one last durable checkpoint — every
	// shard mailbox drains into the batch-aligned merge — so a clean stop
	// restarts without any WAL replay.
	stopSignals() // a second signal kills the process the hard way
	fmt.Fprintln(os.Stderr, "covserved: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "covserved: draining requests: %v\n", err)
	}
	if wireSrv != nil {
		// Stop the wire listeners and drain the per-connection goroutines
		// before the final checkpoint, so every acked edge is in an engine
		// when the snapshot is cut.
		wireSrv.Close()
	}
	stopAutosnap()
	if node != nil {
		node.Close()
	}
	if *snapFile != "" {
		if err := server.CheckpointMulti(multi, *snapFile); err != nil {
			fmt.Fprintf(os.Stderr, "covserved: final snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "covserved: persisted %d namespace(s) to %s\n",
			len(multi.List()), *snapFile)
	}
	if err := multi.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "covserved: %v\n", err)
		os.Exit(1)
	}
}

// restore loads a snapshot file, sniffing the format: a v2 container
// (MCOV2) recreates every persisted namespace; a single-state file (a
// pre-namespace v1 sketch, or the state blob of whatever -engine the
// flags select) seeds the bootstrap namespace's config so the upgraded
// server resumes exactly where the single-dataset one left off.
func restore(multi *server.Multi, data []byte, cfg *server.Config) error {
	if len(data) >= len(server.MultiSnapshotMagic) &&
		string(data[:len(server.MultiSnapshotMagic)]) == server.MultiSnapshotMagic {
		_, err := multi.RestoreAll(bytes.NewReader(data))
		return err
	}
	restored, err := server.ReadRestore(*cfg, bytes.NewReader(data))
	if err != nil {
		return err
	}
	*cfg = restored
	return nil
}
