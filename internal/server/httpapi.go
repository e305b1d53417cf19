package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bipartite"
)

// HTTPOptions tunes the HTTP front end.
type HTTPOptions struct {
	// MaxBatchEdges rejects ingest bodies with more edges (default 1<<20).
	MaxBatchEdges int
	// MaxBodyBytes caps the accepted request body size in bytes. Zero
	// derives a limit from MaxBatchEdges (32 bytes per edge pair plus
	// headroom — enough for the largest allowed batch in the JSON wire
	// format even with whitespace-heavy encoders).
	MaxBodyBytes int64
	// SnapshotPath, when non-empty, is where POST …/snapshot persists
	// state (written atomically via a temp file + rename). A single-engine
	// handler writes the v1 sketch format; a multi handler writes the v2
	// container framing every namespace.
	SnapshotPath string
}

func (o HTTPOptions) maxBatch() int {
	if o.MaxBatchEdges < 1 {
		return 1 << 20
	}
	return o.MaxBatchEdges
}

func (o HTTPOptions) maxBodyBytes() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	// Compact encoding needs 24 bytes per worst-case pair
	// ("[4294967295,4294967295],"); budget 32 so clients that emit
	// whitespace (e.g. pretty-printers) still fit a full -max-batch.
	return 32*int64(o.maxBatch()) + 4096
}

// api bundles the pieces the engine-scoped endpoints share between the
// single-engine and the multi-tenant handler: the request limits and
// the snapshot-persistence strategy (v1 sketch file vs v2 container).
type api struct {
	opt HTTPOptions
	// persist implements POST …/snapshot for target e: refresh e and,
	// when a SnapshotPath is configured, persist to disk. It returns e's
	// fresh snapshot and the path written ("" when nothing persisted).
	persist func(e *Engine) (*Snapshot, string, error)
}

// NewHTTPHandler exposes a single engine as the covserved JSON API:
//
//	POST /v1/edges     {"edges": [[set, elem], ...]}  → bulk ingest
//	GET  /v1/query     ?algo=kcover&k=10 | ?algo=outliers&lambda=0.1 |
//	                   ?algo=greedy — optional &refresh=1 merges first.
//	                   Weighted datasets serve kcover (alias wkcover)
//	                   through the weighted query plane and reject
//	                   outliers/greedy.
//	GET  /v1/stats     → engine + per-shard accounting
//	POST /v1/snapshot  → coordinator merge; persists when configured
//	GET  /v1/healthz   → liveness
//
// For a namespaced (multi-tenant) surface, see NewMultiHandler; this
// handler serves exactly one dataset and persists v1 sketch files.
func NewHTTPHandler(e *Engine, opt HTTPOptions) http.Handler {
	a := &api{opt: opt}
	a.persist = func(target *Engine) (*Snapshot, string, error) {
		if opt.SnapshotPath == "" {
			snap, err := target.Refresh()
			return snap, "", err
		}
		snap, err := CheckpointEngine(target, opt.SnapshotPath)
		return snap, opt.SnapshotPath, err
	}
	mux := http.NewServeMux()
	fixed := func(r *http.Request) (*Engine, error) { return e, nil }
	a.engineRoutes(mux, "/v1", fixed)
	registerHealthz(mux)
	return mux
}

// NewMultiHandler exposes a namespace directory as the multi-tenant
// covserved JSON API. The single-dataset routes of NewHTTPHandler stay
// available unprefixed and resolve to the directory's default namespace
// (404 until it is created), so pre-namespace clients keep working.
// The namespaced surface:
//
//	GET    /v1/ns                   → list namespaces
//	POST   /v1/ns                   {"name": …, "num_sets": …, "k": …, …}
//	GET    /v1/ns/{name}            → one namespace's directory entry
//	DELETE /v1/ns/{name}            → stop and remove the namespace
//	POST   /v1/ns/{name}/edges      ┐
//	GET    /v1/ns/{name}/query      │ per-namespace variants of the
//	GET    /v1/ns/{name}/stats      │ single-dataset routes
//	POST   /v1/ns/{name}/snapshot   ┘
//
// POST …/snapshot (any variant) persists the whole directory as one v2
// container when HTTPOptions.SnapshotPath is set, so a single file
// always holds every namespace.
func NewMultiHandler(m *Multi, opt HTTPOptions) http.Handler {
	a := &api{opt: opt}
	a.persist = func(target *Engine) (*Snapshot, string, error) {
		// Refresh the target first so the response describes a merge that
		// reflects this request; the container write below re-merges every
		// namespace (idle ones short-circuit).
		snap, err := target.Refresh()
		if err != nil || opt.SnapshotPath == "" {
			return snap, "", err
		}
		if err := CheckpointMulti(m, opt.SnapshotPath); err != nil {
			return nil, "", err
		}
		return snap, opt.SnapshotPath, nil
	}
	mux := http.NewServeMux()
	a.engineRoutes(mux, "/v1", func(r *http.Request) (*Engine, error) {
		e, ok := m.Default()
		if !ok {
			return nil, fmt.Errorf("%w: %q (default)", ErrNamespaceUnknown, m.DefaultName())
		}
		return e, nil
	})
	a.engineRoutes(mux, "/v1/ns/{name}", func(r *http.Request) (*Engine, error) {
		name := r.PathValue("name")
		e, ok := m.Get(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNamespaceUnknown, name)
		}
		return e, nil
	})

	mux.HandleFunc("/v1/ns", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			WriteJSON(w, http.StatusOK, listNamespacesResponse{
				Default:    m.DefaultName(),
				Namespaces: m.List(),
			})
		case http.MethodPost:
			a.handleCreateNamespace(m, w, r)
		default:
			MethodNotAllowed(w, "GET, POST")
		}
	})

	mux.HandleFunc("/v1/ns/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		switch r.Method {
		case http.MethodGet:
			e, ok := m.Get(name)
			if !ok {
				ErrorJSON(w, http.StatusNotFound, "%v: %q", ErrNamespaceUnknown, name)
				return
			}
			WriteJSON(w, http.StatusOK, infoFor(name, e, name == m.DefaultName()))
		case http.MethodDelete:
			if err := m.Delete(name); err != nil {
				ErrorJSON(w, StatusFor(err), "%v", err)
				return
			}
			WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
		default:
			MethodNotAllowed(w, "GET, DELETE")
		}
	})

	registerHealthz(mux)
	return mux
}

// engineRoutes registers the four engine-scoped endpoints under prefix,
// resolving the target engine per request (the resolver reads the
// {name} path value on namespaced routes).
func (a *api) engineRoutes(mux *http.ServeMux, prefix string, resolve func(*http.Request) (*Engine, error)) {
	withEngine := func(method, allow string, h func(*Engine, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method {
				MethodNotAllowed(w, allow)
				return
			}
			e, err := resolve(r)
			if err != nil {
				ErrorJSON(w, StatusFor(err), "%v", err)
				return
			}
			h(e, w, r)
		}
	}
	// POST ingests edges (or, on a delete-capable engine, an op batch);
	// DELETE retracts previously inserted edges — dynamic engines only.
	mux.HandleFunc(prefix+"/edges", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost && r.Method != http.MethodDelete {
			MethodNotAllowed(w, "POST, DELETE")
			return
		}
		e, err := resolve(r)
		if err != nil {
			ErrorJSON(w, StatusFor(err), "%v", err)
			return
		}
		a.handleMutation(e, w, r)
	})
	mux.HandleFunc(prefix+"/query", withEngine(http.MethodGet, "GET", a.handleQuery))
	mux.HandleFunc(prefix+"/stats", withEngine(http.MethodGet, "GET", a.handleStats))
	// POST merges (and persists when configured); GET serves the merged
	// state bytes — the same blob a cluster peer pulls from
	// /v1/cluster/sketch, so one curl can inspect or back up a node.
	mux.HandleFunc(prefix+"/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			MethodNotAllowed(w, "GET, POST")
			return
		}
		e, err := resolve(r)
		if err != nil {
			ErrorJSON(w, StatusFor(err), "%v", err)
			return
		}
		if r.Method == http.MethodGet {
			ServeState(e, w, r)
			return
		}
		a.handleSnapshot(e, w, r)
	})
}

// Response headers of the binary state endpoints (GET …/snapshot and
// /v1/cluster/sketch): enough metadata for a cluster peer to validate a
// blob before decoding it and to account for the edges it carries.
const (
	// HeaderNodeID carries the serving node's id on cluster responses.
	HeaderNodeID = "X-Cov-Node"
	// HeaderWeighted is "1" when the blob is a weighted class bank
	// (weighted.BankMagic framing) rather than a v1 sketch.
	HeaderWeighted = "X-Cov-Weighted"
	// HeaderWeightsSig is the decimal WeightConfig.Signature of the
	// serving engine (0 for unweighted) — peers refuse to merge a blob
	// whose weights disagree with their own.
	HeaderWeightsSig = "X-Cov-Weights-Sig"
	// HeaderEdges is the decimal ingested-edge total the blob reflects.
	HeaderEdges = "X-Cov-Edges"
	// HeaderEngine is the serving engine's mode name ("sketch",
	// "weighted", "dynamic") — peers refuse to merge a blob produced by a
	// different engine mode. Absent on responses from servers that
	// predate the engine-mode plane; receivers treat it as advisory.
	HeaderEngine = "X-Cov-Engine"

	// The RFC 3229 delta exchange (ServeState). A request opts in with
	// HeaderAIM naming DeltaIM; a 226 answer names it in HeaderIM and the
	// ETag of the state it is a delta on in HeaderDeltaBase.
	HeaderAIM       = "A-IM"
	HeaderIM        = "IM"
	HeaderDeltaBase = "Delta-Base"
	// DeltaIM is the instance manipulation of a sketch state delta: a v1
	// sketch blob holding the new state's view restricted to the elements
	// that changed since the base, under the new bar and edge total, which
	// MergeStates folds into the base state to give the new state byte for
	// byte (Snapshot.Delta).
	DeltaIM = "cov-delta"
)

// acceptsDelta reports whether the request's A-IM header lists DeltaIM.
func acceptsDelta(r *http.Request) bool {
	for _, line := range r.Header.Values(HeaderAIM) {
		for _, im := range strings.Split(line, ",") {
			im, _, _ = strings.Cut(im, ";") // drop parameters such as q=
			if strings.EqualFold(strings.TrimSpace(im), DeltaIM) {
				return true
			}
		}
	}
	return false
}

// stateETag is the ETag of the state an engine instance published at an
// ingested-edge total (see ServeState).
func stateETag(instance uint64, edges int64) string {
	return `"` + strconv.FormatUint(instance, 16) + "-" + strconv.FormatInt(edges, 10) + `"`
}

// ServeState implements a conditional GET of an engine's serialized
// merged state: Content-Type application/octet-stream, body exactly the
// bytes Engine.WriteSnapshot persists (v1 sketch, or a class bank on a
// weighted engine), metadata in the X-Cov-* headers. The ETag is the
// engine's instance id and its ingested-edge total: one engine's merged
// state is a deterministic function of the ops it has accepted, whose
// count only grows, so an unchanged count on the same engine means
// unchanged bytes and If-None-Match short-circuits to an empty 304 —
// the anti-entropy loop's steady-state probe costs one refresh
// idle-check and no serialization. The instance id keeps a different
// engine that reached the same count (a node restarted without its
// WAL, a namespace deleted and re-created) from answering 304 for
// state it never held. Both GET …/snapshot and the cluster
// /v1/cluster/sketch endpoint are this handler.
//
// A requester that holds the state this engine published just before the
// current one can ask for the difference instead, the RFC 3229 way:
// A-IM: cov-delta, and If-None-Match naming exactly that predecessor's
// ETag. On a sketch engine whose current snapshot is one delta on it
// (Snapshot.Delta) the answer is 226 IM Used with IM: cov-delta and
// Delta-Base: <that ETag>, and the body is the snapshot's DeltaIM blob,
// built on the first such request and shared by later ones. Every other
// request — no A-IM, another base, a weighted or dynamic engine, a
// snapshot that cut any shard in full — gets the full 200 or the 304.
func ServeState(e *Engine, w http.ResponseWriter, r *http.Request) {
	snap, err := e.Refresh() // idle engines reuse the published snapshot
	if err != nil {
		ErrorJSON(w, StatusFor(err), "%v", err)
		return
	}
	etag := stateETag(e.instance, snap.IngestedEdges)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set(HeaderEdges, strconv.FormatInt(snap.IngestedEdges, 10))
	h.Set(HeaderWeightsSig, strconv.FormatUint(e.WeightSig(), 10))
	h.Set(HeaderEngine, string(e.ModeName()))
	if snap.Weighted() {
		h.Set(HeaderWeighted, "1")
	}
	inm := r.Header.Get("If-None-Match")
	if inm == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var body []byte
	status := http.StatusOK
	if d := snap.delta; d != nil && inm == stateETag(e.instance, d.baseEdges) && acceptsDelta(r) {
		_, body = d.build(snap.state)
		status = http.StatusIMUsed
		h.Set(HeaderIM, DeltaIM)
		h.Set(HeaderDeltaBase, inm)
	} else {
		// Serialize to memory first: an encode failure after WriteHeader
		// would truncate a 200 mid-body, which a peer could mistake for a
		// corrupt snapshot rather than a server error.
		var buf bytes.Buffer
		if err := snap.WriteState(&buf); err != nil {
			ErrorJSON(w, http.StatusInternalServerError, "serializing state: %v", err)
			return
		}
		body = buf.Bytes()
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if r.Method != http.MethodHead {
		w.Write(body)
	}
}

func registerHealthz(mux *http.ServeMux) {
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			MethodNotAllowed(w, "GET, HEAD")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// decodeJSONBody reads r's body as exactly one JSON document of at most
// limit bytes into v. On failure it has written the error response
// (413 for an oversized body, 400 otherwise) and returns false.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v interface{}) bool {
	// Bound the body before decoding: a misbehaving client cannot make
	// the decoder buffer an unbounded payload.
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			ErrorJSON(w, http.StatusRequestEntityTooLarge,
				"body exceeds limit of %d bytes", tooLarge.Limit)
			return false
		}
		ErrorJSON(w, http.StatusBadRequest, "bad %s body: %v", what, err)
		return false
	}
	// One JSON document per request: trailing tokens after the body
	// are a malformed request, not silently ignorable garbage.
	if _, err := dec.Token(); err != io.EOF {
		ErrorJSON(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// handleMutation is POST and DELETE …/edges: one body decoder and one
// set of limits for both. POST ingests the body's edges, or its ops;
// DELETE retracts the body's edges as delete ops. Engines whose mode
// cannot apply deletes answer 409 with the typed ErrDeletesUnsupported
// message.
func (a *api) handleMutation(e *Engine, w http.ResponseWriter, r *http.Request) {
	retract := r.Method == http.MethodDelete
	what := "ingest"
	if retract {
		what = "delete"
	}
	var body ingestRequest
	if !decodeJSONBody(w, r, a.opt.maxBodyBytes(), what, &body) {
		return
	}
	switch max := a.opt.maxBatch(); {
	case retract && len(body.Ops) > 0:
		ErrorJSON(w, http.StatusBadRequest, `DELETE takes "edges" only; POST an "ops" batch for mixed mutations`)
		return
	case len(body.Edges) > 0 && len(body.Ops) > 0:
		ErrorJSON(w, http.StatusBadRequest, `body mixes "edges" and "ops"; send one or the other`)
		return
	case len(body.Edges) > max || len(body.Ops) > max:
		ErrorJSON(w, http.StatusRequestEntityTooLarge,
			"batch of %d edges exceeds limit %d", len(body.Edges)+len(body.Ops), max)
		return
	}
	var (
		n   int
		err error
	)
	switch {
	case retract:
		n, err = e.IngestOps(bipartite.Deletes(body.edges()))
	case len(body.Ops) > 0:
		var ops []bipartite.Op
		if ops, err = body.ops(); err == nil {
			n, err = e.IngestOps(ops)
		}
	default:
		n, err = e.Ingest(body.edges())
	}
	if err != nil {
		ErrorJSON(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, ingestResponse{Accepted: n, IngestedTotal: e.IngestedEdges()})
}

// ParseQuery decodes the ?algo/&k/&lambda/&refresh query parameters
// into a Query (algo defaults to kcover). The engine and cluster query
// endpoints share it, so a URL means the same thing on every route.
func ParseQuery(r *http.Request) (Query, error) {
	q := Query{Algo: Algo(r.URL.Query().Get("algo"))}
	if q.Algo == "" {
		q.Algo = AlgoKCover
	}
	if v := r.URL.Query().Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return q, fmt.Errorf("bad k: %v", err)
		}
		q.K = k
	}
	if v := r.URL.Query().Get("lambda"); v != "" {
		l, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("bad lambda: %v", err)
		}
		q.Lambda = l
	}
	if v := r.URL.Query().Get("refresh"); v == "1" || v == "true" {
		q.Refresh = true
	}
	return q, nil
}

func (a *api) handleQuery(e *Engine, w http.ResponseWriter, r *http.Request) {
	q, err := ParseQuery(r)
	if err != nil {
		ErrorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := e.Query(q)
	if err != nil {
		ErrorJSON(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (a *api) handleStats(e *Engine, w http.ResponseWriter, r *http.Request) {
	st, err := e.Stats()
	if err != nil {
		ErrorJSON(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (a *api) handleSnapshot(e *Engine, w http.ResponseWriter, r *http.Request) {
	snap, persisted, err := a.persist(e)
	if err != nil {
		// Unlike the other endpoints, a snapshot failure that is not a
		// recognized service-state error is an I/O problem (disk full,
		// unwritable path) — the server's fault, not the request's.
		code := StatusFor(err)
		if code == http.StatusBadRequest {
			code = http.StatusInternalServerError
		}
		ErrorJSON(w, code, "%v", err)
		return
	}
	resp := snapshotResponse{}
	resp.fill(snap)
	resp.Persisted = persisted
	WriteJSON(w, http.StatusOK, resp)
}

// handleCreateNamespace implements POST /v1/ns.
func (a *api) handleCreateNamespace(m *Multi, w http.ResponseWriter, r *http.Request) {
	// Larger than the other control bodies: a weighted namespace carries
	// its element-weight table inline (~20 JSON bytes per element).
	var req createNamespaceRequest
	if !decodeJSONBody(w, r, 1<<24, "namespace", &req) {
		return
	}
	e, err := m.Create(req.Name, req.config())
	if err != nil {
		ErrorJSON(w, StatusFor(err), "creating namespace %q: %v", req.Name, err)
		return
	}
	WriteJSON(w, http.StatusCreated, infoFor(req.Name, e, req.Name == m.DefaultName()))
}

// MethodNotAllowed writes a 405 with the required Allow header (RFC 9110
// §15.5.6).
func MethodNotAllowed(w http.ResponseWriter, allowed string) {
	w.Header().Set("Allow", allowed)
	ErrorJSON(w, http.StatusMethodNotAllowed, "%s required", allowed)
}

// Indirection points of atomicWrite's durability steps, swapped by the
// write-path test to assert the ordering (data fsynced before the
// rename publishes it; directory fsynced after, so the new name itself
// survives power loss).
var (
	syncFile   = (*os.File).Sync
	renameFile = os.Rename
	syncDir    = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	}
)

// atomicWrite streams write to a private temp file, fsyncs it, renames
// it over path and fsyncs the parent directory — so concurrent writers
// cannot interleave bytes, readers only ever observe a complete file,
// and a power loss after return cannot roll the file back to its old
// content (rename without the surrounding fsyncs guarantees neither).
func atomicWrite(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// ingestRequest is the POST …/edges body: edges as [set, elem] pairs,
// or — on delete-capable engines — ops as [kind, set, elem] triples
// (kind 0 = insert, 1 = delete). The two forms are mutually exclusive
// per request; DELETE …/edges reuses the edges form and retracts them.
type ingestRequest struct {
	Edges [][2]uint32 `json:"edges"`
	Ops   [][3]uint32 `json:"ops"`
}

func (r ingestRequest) edges() []bipartite.Edge {
	out := make([]bipartite.Edge, len(r.Edges))
	for i, p := range r.Edges {
		out[i] = bipartite.Edge{Set: p[0], Elem: p[1]}
	}
	return out
}

func (r ingestRequest) ops() ([]bipartite.Op, error) {
	out := make([]bipartite.Op, len(r.Ops))
	for i, p := range r.Ops {
		if p[0] > uint32(bipartite.OpDelete) {
			return nil, fmt.Errorf("op %d: unknown kind %d (0 inserts, 1 deletes)", i, p[0])
		}
		out[i] = bipartite.Op{Kind: bipartite.OpKind(p[0]), Edge: bipartite.Edge{Set: p[1], Elem: p[2]}}
	}
	return out, nil
}

type ingestResponse struct {
	Accepted      int   `json:"accepted"`
	IngestedTotal int64 `json:"ingested_total"`
}

// createNamespaceRequest is the POST /v1/ns body. Name, NumSets and K
// are required; the rest default as in Config. A weights object makes
// the namespace a weighted-coverage dataset (element weights are
// namespace configuration; kcover queries then run the weighted plane).
type createNamespaceRequest struct {
	Name        string  `json:"name"`
	NumSets     int     `json:"num_sets"`
	K           int     `json:"k"`
	Eps         float64 `json:"eps"`
	Seed        uint64  `json:"seed"`
	NumElems    int     `json:"num_elems"`
	EdgeBudget  int     `json:"edge_budget"`
	SpaceFactor float64 `json:"space_factor"`
	Shards      int     `json:"shards"`
	QueueDepth  int     `json:"queue_depth"`
	// MergeEveryMS enables the periodic snapshot merge, in milliseconds.
	MergeEveryMS int64         `json:"merge_every_ms"`
	Weights      *weightsFrame `json:"weights,omitempty"`
	// Engine selects the engine mode by name ("sketch", "weighted",
	// "dynamic"); empty defaults as in Config.EngineMode.
	Engine string `json:"engine,omitempty"`
}

// weightsFrame is the wire/persisted form of a WeightConfig, shared by
// the POST /v1/ns body and the snapshot-v2 config frame.
type weightsFrame struct {
	// Table[e] is element e's weight (finite, non-negative).
	Table []float64 `json:"table"`
	// Default is the weight of elements at or beyond the table (0 =
	// ignore them).
	Default float64 `json:"default,omitempty"`
}

func weightsFromConfig(w *WeightConfig) *weightsFrame {
	if w == nil {
		return nil
	}
	return &weightsFrame{Table: w.Table, Default: w.Default}
}

func (f *weightsFrame) config() *WeightConfig {
	if f == nil {
		return nil
	}
	return &WeightConfig{Table: f.Table, Default: f.Default}
}

func (r createNamespaceRequest) config() Config {
	return Config{
		NumSets:     r.NumSets,
		K:           r.K,
		Eps:         r.Eps,
		Seed:        r.Seed,
		NumElems:    r.NumElems,
		EdgeBudget:  r.EdgeBudget,
		SpaceFactor: r.SpaceFactor,
		Shards:      r.Shards,
		QueueDepth:  r.QueueDepth,
		MergeEvery:  time.Duration(r.MergeEveryMS) * time.Millisecond,
		Weights:     r.Weights.config(),
		Engine:      ModeName(r.Engine),
	}
}

// listNamespacesResponse is the GET /v1/ns body.
type listNamespacesResponse struct {
	// Default names the namespace the unprefixed routes alias.
	Default string `json:"default"`
	// Namespaces lists every namespace, sorted by name.
	Namespaces []NamespaceInfo `json:"namespaces"`
}

type snapshotResponse struct {
	Seq           uint64    `json:"seq"`
	CreatedAt     time.Time `json:"created_at"`
	IngestedEdges int64     `json:"ingested_edges"`
	Elements      int       `json:"elements"`
	KeptEdges     int       `json:"kept_edges"`
	PStar         float64   `json:"p_star"`
	Weighted      bool      `json:"weighted,omitempty"`
	WeightClasses int       `json:"weight_classes,omitempty"`
	Engine        ModeName  `json:"engine,omitempty"`
	Persisted     string    `json:"persisted,omitempty"`
}

func (r *snapshotResponse) fill(s *Snapshot) {
	r.Seq = s.Seq
	r.CreatedAt = s.CreatedAt
	r.IngestedEdges = s.IngestedEdges
	r.Elements = s.elements()
	r.KeptEdges = s.keptEdges()
	r.PStar = s.pStar()
	if s.Weighted() {
		r.Weighted = true
		r.WeightClasses = s.Bank().Classes()
	}
	if name := s.ModeName(); name != ModeSketch && name != ModeWeighted {
		r.Engine = name
	}
}

// StatusFor maps service errors to HTTP codes: a closed engine or a
// duplicate namespace conflict with the server's state, an unknown
// namespace is absent, and everything else is a bad request.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrClosed):
		return http.StatusConflict
	case errors.Is(err, ErrNamespaceExists):
		return http.StatusConflict
	case errors.Is(err, ErrNamespaceUnknown):
		return http.StatusNotFound
	case errors.Is(err, ErrDeletesUnsupported):
		// The request is well-formed; the engine's configuration cannot
		// honor it — a state conflict, like a closed engine.
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func ErrorJSON(w http.ResponseWriter, code int, format string, args ...interface{}) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON marshals v before touching the response: if encoding fails
// (it should not — query results are now NaN-free by construction — but
// a marshal error after WriteHeader would emit a broken 200 with an
// empty body), the client receives a well-formed 500 instead.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		data, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
