// Command covcli is the client for covserved: it replays a coverage
// instance file (as written by covgen) against a running server in
// batched POSTs, queries k-cover on a fresh merge (refresh=1), and —
// with -compare — runs the offline single-pass algorithm locally on the
// same instance and verifies the server returns the same answer (the
// merge-composability guarantee, end to end over the wire).
//
// Usage:
//
//	covgen -kind zipf -n 200 -m 20000 -o inst.txt
//	covserved -n 200 -k 10 -eps 0.4 -seed 7 -budget 10000 &
//	covcli -server http://127.0.0.1:8080 -file inst.txt -k 10 \
//	       -eps 0.4 -seed 7 -budget 10000 -compare
//
// The -eps/-seed/-budget/-space-factor flags matter with -compare (they
// must repeat the server's configuration for the offline run to build
// the same sketch) and with -create-ns (they configure the namespace).
//
// With -ns, covcli targets a namespace on a multi-tenant server (the
// /v1/ns/{name}/… routes) instead of the default dataset; -create-ns
// first creates the namespace from the instance dimensions and the
// sketch flags:
//
//	covcli -server http://127.0.0.1:8080 -ns tenant-a -create-ns \
//	       -file inst.txt -k 10 -eps 0.4 -seed 7 -budget 10000 -compare
//
// With -weights, covcli exercises the weighted-coverage workload: the
// namespace is created with an element-weight table derived from the
// named profile, the query runs the weighted kcover route, and
// -compare verifies the server against the one-shot
// streamcover.MaxWeightedCoverage with the same weights:
//
//	covcli -server http://127.0.0.1:8080 -ns heavy -create-ns \
//	       -file inst.txt -k 10 -eps 0.4 -seed 7 -budget 10000 \
//	       -weights mod:16 -compare
//
// With -wire, covcli replays the instance over covserved's binary wire
// ingest protocol (-wire-addr; DESIGN.md §13) instead of JSON posts: one
// persistent connection streams CRC-framed batches with pipelined acks,
// typically an order of magnitude faster (see bench/README.md).
// Queries and -compare still go over HTTP via -server:
//
//	covserved -n 200 -k 10 -eps 0.4 -seed 7 -budget 10000 \
//	          -wire-addr 127.0.0.1:9090 &
//	covcli -server http://127.0.0.1:8080 -wire 127.0.0.1:9090 \
//	       -file inst.txt -k 10 -eps 0.4 -seed 7 -budget 10000 -compare
//
// With -delete-frac, covcli exercises the dynamic (insert/delete)
// engine: after the full replay it retracts the first ⌈frac·edges⌉
// edges of the same deterministic order — over DELETE /edges on the
// JSON path, or op batches (DESIGN.md §14) on the wire path, where the
// hello negotiates the op plane so a non-dynamic namespace rejects the
// session at the handshake. -delete-frac 1 deletes the whole stream
// and the query must come back empty:
//
//	covserved -n 200 -k 10 -engine dynamic &
//	covcli -server http://127.0.0.1:8080 -ns dyn -create-ns \
//	       -engine dynamic -file inst.txt -k 10 -delete-frac 0.5
//
// With -fanout, covcli replays against a whole cluster (covserved
// -peers …): batches are partitioned round-robin across the listed
// node URLs, the first node is asked to pull its peers
// (POST /v1/cluster/pull), and the query goes to that node alone —
// whose cluster-merged answer -compare then verifies against the
// offline run over the complete stream:
//
//	covcli -fanout http://a:8080,http://b:8080,http://c:8080 \
//	       -file inst.txt -k 10 -eps 0.4 -seed 7 -budget 10000 -compare
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/streamcover"
)

// parseWeights builds the element-weight table of a named profile:
// "mod:<p>" gives weight(e) = e%p + 1 (p distinct small weights) and
// "geo:<c>" gives weight(e) = 2^(e%c) (c geometric weight classes —
// one sketch per class server-side).
func parseWeights(spec string, numElems int) ([]float64, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok || (kind != "mod" && kind != "geo") {
		return nil, fmt.Errorf("weight profile %q: want mod:<p> or geo:<c>", spec)
	}
	p, err := strconv.Atoi(arg)
	if err != nil || p < 1 {
		return nil, fmt.Errorf("weight profile %q: bad modulus %q", spec, arg)
	}
	table := make([]float64, numElems)
	for e := range table {
		if kind == "mod" {
			table[e] = float64(e%p + 1)
		} else {
			table[e] = math.Pow(2, float64(e%p))
		}
	}
	return table, nil
}

func main() {
	var (
		serverURL = flag.String("server", "http://127.0.0.1:8080", "covserved base URL")
		file      = flag.String("file", "", "instance file from covgen (required)")
		k         = flag.Int("k", 10, "k-cover solution size to query")
		batch     = flag.Int("batch", 2048, "edges per ingest request")
		seed      = flag.Uint64("seed", 1, "server's hash seed (for -compare) and replay order")
		eps       = flag.Float64("eps", 0.5, "server's eps (for -compare)")
		budget    = flag.Int("budget", 0, "server's edge budget override (for -compare)")
		space     = flag.Float64("space-factor", 0, "server's space factor (for -compare)")
		compare   = flag.Bool("compare", false, "run the offline algorithm locally and verify the answers match")
		ns        = flag.String("ns", "", "target namespace (empty = the server's default dataset)")
		createNS  = flag.Bool("create-ns", false, "create -ns on the server first, from the instance dimensions and sketch flags")
		weightsFl = flag.String("weights", "", `weighted-coverage profile ("mod:<p>" or "geo:<c>"); requires -create-ns, queries the weighted kcover route`)
		engineFl  = flag.String("engine", "", `engine mode for the created namespace ("sketch" or "dynamic"); requires -create-ns`)
		delFrac   = flag.Float64("delete-frac", 0, "after the replay, delete this fraction of the stream again (the first ⌈frac·edges⌉ in replay order); needs a dynamic-engine namespace")
		fanout    = flag.String("fanout", "", "comma-separated cluster node URLs: partition the replay across them, pull, then query the first (overrides -server)")
		wireFlag  = flag.String("wire", "", "covserved wire listener address (-wire-addr): replay over the binary ingest protocol instead of JSON posts")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "covcli: -file is required")
		os.Exit(2)
	}
	if *createNS && *ns == "" {
		fmt.Fprintln(os.Stderr, "covcli: -create-ns requires -ns")
		os.Exit(2)
	}
	if *weightsFl != "" && !*createNS {
		fmt.Fprintln(os.Stderr, "covcli: -weights requires -create-ns (weights are namespace configuration)")
		os.Exit(2)
	}
	if *engineFl != "" && !*createNS {
		fmt.Fprintln(os.Stderr, "covcli: -engine requires -create-ns (the engine mode is namespace configuration)")
		os.Exit(2)
	}
	if *engineFl != "" && *weightsFl != "" {
		fmt.Fprintln(os.Stderr, "covcli: -engine and -weights are mutually exclusive (weighted coverage is its own engine mode)")
		os.Exit(2)
	}
	if *engineFl == "dynamic" && *compare {
		fmt.Fprintln(os.Stderr, "covcli: -compare is not defined for -engine dynamic (the dynamic engine answers from the H≤n sketch cut at the L0 level that decoded, which is the offline sketch only when that level reaches the budget)")
		os.Exit(2)
	}
	if *wireFlag != "" && *fanout != "" {
		fmt.Fprintln(os.Stderr, "covcli: -wire and -fanout are mutually exclusive (the wire replay targets one node)")
		os.Exit(2)
	}
	if *delFrac < 0 || *delFrac > 1 {
		fmt.Fprintln(os.Stderr, "covcli: -delete-frac must be in [0, 1]")
		os.Exit(2)
	}
	if *delFrac > 0 {
		if *compare {
			fmt.Fprintln(os.Stderr, "covcli: -delete-frac and -compare are mutually exclusive (the offline single-pass reference has no delete plane)")
			os.Exit(2)
		}
		if *fanout != "" {
			fmt.Fprintln(os.Stderr, "covcli: -delete-frac and -fanout are mutually exclusive (a delete must land on the node that ingested the insert)")
			os.Exit(2)
		}
		if *createNS && *engineFl != "dynamic" {
			fmt.Fprintln(os.Stderr, "covcli: -delete-frac needs -engine dynamic (the append-only engines reject deletes)")
			os.Exit(2)
		}
	}
	f, err := os.Open(*file)
	if err != nil {
		fatal(err)
	}
	inst, err := streamcover.ReadInstance(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	var weightTable []float64
	if *weightsFl != "" {
		if weightTable, err = parseWeights(*weightsFl, inst.NumElems()); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "covcli: replaying %s: n=%d m=%d edges=%d batch=%d\n",
		*file, inst.NumSets(), inst.NumElems(), inst.NumEdges(), *batch)

	client := &http.Client{Timeout: 60 * time.Second}
	// nodes are the base URLs the replay is partitioned across: the one
	// -server by default, or the cluster members with -fanout (the first
	// is the query node).
	nodes := []string{*serverURL}
	if *fanout != "" {
		nodes = strings.Split(*fanout, ",")
	}
	// All dataset routes hang off this prefix: the legacy default-dataset
	// surface, or a namespace-scoped one with -ns.
	apiBase := func(node string) string {
		if *ns != "" {
			return node + "/v1/ns/" + *ns
		}
		return node + "/v1"
	}
	if *createNS {
		req := map[string]interface{}{
			"name": *ns, "num_sets": inst.NumSets(), "num_elems": inst.NumElems(),
			"k": *k, "eps": *eps, "seed": *seed,
			"edge_budget": *budget, "space_factor": *space,
		}
		if weightTable != nil {
			req["weights"] = map[string]interface{}{"table": weightTable}
		}
		if *engineFl != "" {
			req["engine"] = *engineFl
		}
		body, _ := json.Marshal(req)
		// Every cluster node needs the namespace: peers only exchange
		// namespaces that exist (with identical config) on both sides.
		for _, node := range nodes {
			resp, err := client.Post(node+"/v1/ns", "application/json", bytes.NewReader(body))
			if err != nil {
				fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				fmt.Fprintf(os.Stderr, "covcli: created namespace %q on %s\n", *ns, node)
			case http.StatusConflict:
				fmt.Fprintf(os.Stderr, "covcli: namespace %q already exists on %s; replaying into it as-is\n", *ns, node)
			default:
				fatal(fmt.Errorf("POST %s/v1/ns: %s: %s", node, resp.Status, bytes.TrimSpace(msg)))
			}
		}
	}
	start := time.Now()
	sent, batches := 0, 0
	// The delete pass retracts a deterministic prefix of the replay
	// order: re-streaming with the same seed reproduces the exact edges
	// that went in, so the server's net state is the stream's suffix.
	delCount := int(math.Round(*delFrac * float64(inst.NumEdges())))
	st := inst.EdgeStream(*seed)
	if *wireFlag != "" {
		// One persistent wire connection: batches are framed, pipelined
		// and acked with the ingested-edge watermark; Close flushes and
		// waits for the final ack, so every edge is in the engine (and in
		// the WAL on a durable server) before the query below runs. With
		// -delete-frac the hello negotiates the op plane up front, so a
		// non-dynamic namespace rejects the session at the handshake
		// instead of mid-replay.
		hello := streamcover.WireHello{Namespace: *ns, Engine: *engineFl, Ops: delCount > 0}
		conn, err := streamcover.DialIngest(*wireFlag, hello)
		if err != nil {
			fatal(err)
		}
		total, err := conn.SendStream(st, *batch)
		if err != nil {
			fatal(err)
		}
		if delCount > 0 {
			deleted, delBatches := 0, 0
			if err := streamDeletes(inst, *seed, delCount, *batch, func(edges []streamcover.Edge) error {
				ops := make([]streamcover.Op, len(edges))
				for i, e := range edges {
					ops[i] = streamcover.Op{Kind: streamcover.OpDelete, Edge: e}
				}
				deleted += len(ops)
				delBatches++
				return conn.SendOps(ops)
			}); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "covcli: deleted %d edges in %d wire op batches\n", deleted, delBatches)
		}
		if err := conn.Close(); err != nil {
			fatal(err)
		}
		sent = int(total)
		batches = int((total + int64(*batch) - 1) / int64(*batch))
		fmt.Fprintf(os.Stderr, "covcli: ingested %d edges in %d wire batches (%v)\n",
			sent, batches, time.Since(start).Round(time.Millisecond))
	} else {
		pairs := make([][2]uint32, 0, *batch)
		// Batches round-robin across the nodes — with -fanout every node
		// ingests only its partition, and the final answer still has to
		// account for every edge (mergeability over the wire).
		flush := func() error {
			if len(pairs) == 0 {
				return nil
			}
			base := apiBase(nodes[batches%len(nodes)])
			body, _ := json.Marshal(map[string]interface{}{"edges": pairs})
			resp, err := client.Post(base+"/edges", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				return fmt.Errorf("POST %s/edges: %s: %s", base, resp.Status, bytes.TrimSpace(msg))
			}
			sent += len(pairs)
			batches++
			pairs = pairs[:0]
			return nil
		}
		for {
			e, ok := st.Next()
			if !ok {
				break
			}
			pairs = append(pairs, [2]uint32{e.Set, e.Elem})
			if len(pairs) == *batch {
				if err := flush(); err != nil {
					fatal(err)
				}
			}
		}
		if err := flush(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "covcli: ingested %d edges in %d batches across %d node(s) (%v)\n",
			sent, batches, len(nodes), time.Since(start).Round(time.Millisecond))
		if delCount > 0 {
			// -fanout is excluded above, so nodes[0] holds every insert.
			base := apiBase(nodes[0])
			deleted, delBatches := 0, 0
			if err := streamDeletes(inst, *seed, delCount, *batch, func(edges []streamcover.Edge) error {
				pairs := make([][2]uint32, len(edges))
				for i, e := range edges {
					pairs[i] = [2]uint32{e.Set, e.Elem}
				}
				body, _ := json.Marshal(map[string]interface{}{"edges": pairs})
				req, err := http.NewRequest(http.MethodDelete, base+"/edges", bytes.NewReader(body))
				if err != nil {
					return err
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(resp.Body)
					return fmt.Errorf("DELETE %s/edges: %s: %s", base, resp.Status, bytes.TrimSpace(msg))
				}
				deleted += len(pairs)
				delBatches++
				return nil
			}); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "covcli: deleted %d edges in %d DELETE batches\n", deleted, delBatches)
		}
	}

	queryBase := apiBase(nodes[0])
	if len(nodes) > 1 {
		// Make the query node pull every peer now, so the answer reflects
		// all partitions (its own partition is re-merged by &refresh=1).
		resp, err := client.Post(nodes[0]+"/v1/cluster/pull", "", nil)
		if err != nil {
			fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("POST /v1/cluster/pull: %s: %s", resp.Status, bytes.TrimSpace(msg)))
		}
	}

	algo := "kcover"
	if weightTable != nil {
		// wkcover is kcover's weighted alias; using it asserts the server
		// really created a weighted namespace (an unweighted one rejects it).
		algo = "wkcover"
	}
	qURL := fmt.Sprintf("%s/query?algo=%s&k=%d&refresh=1", queryBase, algo, *k)
	resp, err := client.Get(qURL)
	if err != nil {
		fatal(err)
	}
	var remote struct {
		Sets              []int   `json:"sets"`
		EstimatedCoverage float64 `json:"estimated_coverage"`
		SketchCoverage    int     `json:"sketch_coverage"`
		PStar             float64 `json:"p_star"`
		WeightClasses     int     `json:"weight_classes"`
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fatal(fmt.Errorf("GET %s/query: %s: %s", queryBase, resp.Status, bytes.TrimSpace(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&remote); err != nil {
		fatal(err)
	}
	resp.Body.Close()
	if weightTable != nil {
		fmt.Printf("server wkcover k=%d: sets=%v estimated_weight=%.1f classes=%d\n",
			*k, remote.Sets, remote.EstimatedCoverage, remote.WeightClasses)
	} else {
		fmt.Printf("server kcover k=%d: sets=%v estimated_coverage=%.1f p*=%.4g\n",
			*k, remote.Sets, remote.EstimatedCoverage, remote.PStar)
	}

	if !*compare {
		return
	}
	opt := streamcover.Options{
		Eps: *eps, Seed: *seed, NumElems: inst.NumElems(),
		EdgeBudget: *budget, SpaceFactor: *space,
	}
	var (
		offlineSets []int
		offlineEst  float64
	)
	if weightTable != nil {
		w := streamcover.Weights{Table: weightTable}
		offline, err := streamcover.MaxWeightedCoverage(inst.EdgeStream(*seed+1), inst.NumSets(), *k, w.WeightOf, opt)
		if err != nil {
			fatal(err)
		}
		offlineSets, offlineEst = offline.Sets, offline.EstimatedCoverage
		fmt.Printf("offline weighted kcover k=%d: sets=%v estimated_weight=%.1f classes=%d\n",
			*k, offline.Sets, offline.EstimatedCoverage, offline.WeightClasses)
		covered, err := inst.WeightedCoverage(remote.Sets, weightTable)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exact weighted coverage of server solution: %.1f\n", covered)
	} else {
		offline, err := streamcover.MaxCoverage(inst.EdgeStream(*seed+1), inst.NumSets(), *k, opt)
		if err != nil {
			fatal(err)
		}
		offlineSets, offlineEst = offline.Sets, offline.EstimatedCoverage
		fmt.Printf("offline kcover k=%d: sets=%v estimated_coverage=%.1f\n",
			*k, offline.Sets, offline.EstimatedCoverage)
		exact := inst.Coverage(remote.Sets)
		fmt.Printf("exact coverage of server solution: %d of %d covered elements\n",
			exact, inst.CoveredElems())
	}
	// The sharded and single-pass sketches of one edge set are the same
	// bytes, degree caps binding or not, so the answers must be equal.
	if remote.EstimatedCoverage != offlineEst || !sameSets(remote.Sets, offlineSets) {
		fmt.Fprintln(os.Stderr, "covcli: MISMATCH between server and offline answers")
		os.Exit(1)
	}
	fmt.Println("covcli: server answer matches the offline single-pass run")
}

// streamDeletes replays the first delCount edges of the instance's
// deterministic edge order (the same order the ingest pass used) in
// batches of batchSize, handing each batch to send for retraction.
func streamDeletes(inst *streamcover.Instance, seed uint64, delCount, batchSize int, send func([]streamcover.Edge) error) error {
	st := inst.EdgeStream(seed)
	buf := make([]streamcover.Edge, 0, batchSize)
	for i := 0; i < delCount; i++ {
		e, ok := st.Next()
		if !ok {
			break
		}
		buf = append(buf, e)
		if len(buf) == batchSize {
			if err := send(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		return send(buf)
	}
	return nil
}

func sameSets(a, b []int) bool {
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "covcli: %v\n", err)
	os.Exit(1)
}
