// Package cluster turns covserved nodes into a multi-node coverage
// cluster via anti-entropy sketch exchange. Each node ingests its own
// partition of the edge stream into a local server.Multi; a background
// loop periodically pulls every peer's serialized merged state (v1
// sketch blobs for unweighted namespaces, weighted.BankMagic class
// banks for weighted ones, L0 sampler blobs for dynamic namespaces)
// over GET /v1/cluster/sketch and keeps the last successfully decoded
// state per (peer, namespace); a sketch peer that moved by one snapshot
// since the last pull sends only the delta, which is folded into the
// stored state. Queries are answered from a cluster
// view: the local engine snapshot folded with the remote states through
// the engine mode's merge (server.Mode.MergeStates). For the sketch
// modes that fold is the paper's mergeability result (the H≤n sketch is
// an order-invariant function of the absorbed edge set; the dynamic
// sampler is linear in the net op multiset), which is exactly what makes
// "nodes with a network in between" behave like "shards inside one
// process": any node's cluster answer is bit-identical to a single node
// fed the whole stream, and to the offline one-pass run, degree caps
// binding or not (the package tests pin this).
//
// Two planes keep the exchange convergent: a node always *serves* its
// local-only state (never the merged view), and *merges* only at query
// time. Gossip echo is therefore impossible — no peer's state ever
// re-enters another node's served blob, so pulling is idempotent and
// the cluster view is a pure function of the n local states.
// Persistence stays local-only for the same reason: a node restarting
// from its snapshot re-pulls its peers and converges back to the exact
// cluster view.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Options configures a cluster node.
type Options struct {
	// NodeID names this node in headers and stats (default "node").
	NodeID string
	// Peers lists the base URLs of the other cluster nodes (e.g.
	// "http://10.0.0.2:7070"); this node must not list itself. Empty is
	// a single-node cluster: the node serves purely local answers.
	Peers []string
	// PullInterval is the anti-entropy period (default 2s). Negative
	// disables the background loop entirely — pulls then happen only
	// through PullNow (tests and covcli drive the loop explicitly).
	PullInterval time.Duration
	// MaxBackoff caps the exponential per-peer retry backoff applied
	// after consecutive transport failures (default 30s). The first
	// failure retries after one PullInterval, then 2×, 4×, … up to this;
	// every window is shortened by a deterministic per-(NodeID, peer)
	// jitter fraction (< ¼) so nodes that lose the same peer together
	// retry staggered rather than in lockstep.
	MaxBackoff time.Duration
	// Client issues the pull requests (default: a client with a 10s
	// timeout — never http.DefaultClient, whose zero timeout would let
	// a hung peer pin the loop).
	Client *http.Client
	// MaxStateBytes rejects remote state blobs larger than this
	// (default 256 MiB) before decoding, bounding memory per pull.
	MaxStateBytes int64
	// OnPullError, when non-nil, observes every failed or rejected pull
	// (transport errors, oversized/truncated blobs, config mismatches).
	// Called from the pull goroutine; keep it fast.
	OnPullError func(peer, namespace string, err error)
}

func (o Options) nodeID() string {
	if o.NodeID == "" {
		return "node"
	}
	return o.NodeID
}

func (o Options) pullInterval() time.Duration {
	if o.PullInterval == 0 {
		return 2 * time.Second
	}
	return o.PullInterval
}

func (o Options) maxBackoff() time.Duration {
	if o.MaxBackoff <= 0 {
		return 30 * time.Second
	}
	return o.MaxBackoff
}

func (o Options) maxStateBytes() int64 {
	if o.MaxStateBytes <= 0 {
		return 256 << 20
	}
	return o.MaxStateBytes
}

// remoteState is one peer's last successfully decoded state for one
// namespace. Immutable once stored (a failed refresh never replaces a
// good state — unreachable peers degrade to last-known, not to empty).
type remoteState struct {
	etag    string
	edges   int64              // ingested-edge total the state reflects
	state   server.FrozenState // decoded blob in the namespace's engine mode
	version uint64             // node-unique, never 0; drives cluster-view invalidation
	// delta is set when the state came as a 226: it is the decoded delta
	// that was folded into the stored state of version base to give state.
	// A cluster view built from version base folds it too.
	base  uint64
	delta server.FrozenState
}

// peer is the per-peer pull bookkeeping.
type peer struct {
	url string
	// jitter is this (node, peer) pair's deterministic backoff jitter
	// fraction in [0, ¼): each retry window is shortened by that share,
	// so a cluster of nodes losing the same peer at the same instant
	// retries staggered instead of in lockstep, yet every schedule is
	// reproducible (no RNG in the retry path).
	jitter float64

	mu sync.Mutex
	ns map[string]*remoteState
	// consecFails / nextAttempt implement the transport backoff; the
	// counters below feed PeerStats.
	consecFails int
	nextAttempt time.Time
	pulls       int64 // states fetched and stored, deltas included
	deltas      int64
	notModified int64
	failures    int64
	rejected    int64
	bytes       int64     // response bodies read
	lastAnswer  time.Time // last pull the peer answered (stored, 304 or 404)
	lastErr     string
}

func (p *peer) state(name string) *remoteState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ns[name]
}

// answered records a pull the peer answered without a state to store
// (304, 404): the peer is healthy, so the backoff resets.
func (p *peer) answered(notModified bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if notModified {
		p.notModified++
	}
	p.consecFails = 0
	p.nextAttempt = time.Time{}
	p.lastAnswer = time.Now()
}

// view is a cached cluster-wide merged snapshot for one namespace, built
// from the local snapshot local and, per peer in Options.Peers order, the
// remote state of version peers[i] (0: none).
type view struct {
	local server.SnapshotID
	peers []uint64
	snap  *server.Snapshot
}

// Node is a cluster member: a local server.Multi plus the anti-entropy
// state of its peers. It does not own the Multi — close the Node first,
// then the directory.
type Node struct {
	multi *server.Multi
	opt   Options
	cl    *http.Client
	peers []*peer

	// versions hands out node-unique remote-state versions; viewSeq
	// numbers the merged cluster-view snapshots.
	versions atomic.Uint64
	viewSeq  atomic.Uint64

	viewMu sync.Mutex
	views  map[string]*view

	pullRounds   atomic.Int64
	viewRebuilds atomic.Int64
	viewFolds    atomic.Int64
	viewReuses   atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewNode validates the peer list and starts the anti-entropy loop
// (unless Options.PullInterval is negative). Close stops the loop.
func NewNode(m *server.Multi, opt Options) (*Node, error) {
	if m == nil {
		return nil, fmt.Errorf("cluster: nil namespace directory")
	}
	peers := make([]*peer, 0, len(opt.Peers))
	for _, raw := range opt.Peers {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad peer URL %q", raw)
		}
		trimmed := strings.TrimRight(raw, "/")
		peers = append(peers, &peer{
			url:    trimmed,
			jitter: backoffJitter(opt.nodeID(), trimmed),
			ns:     make(map[string]*remoteState),
		})
	}
	cl := opt.Client
	if cl == nil {
		cl = &http.Client{Timeout: 10 * time.Second}
	}
	n := &Node{
		multi: m,
		opt:   opt,
		cl:    cl,
		peers: peers,
		views: make(map[string]*view),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if opt.PullInterval >= 0 && len(peers) > 0 {
		go n.loop()
	} else {
		close(n.done)
	}
	return n, nil
}

// Multi exposes the node's namespace directory.
func (n *Node) Multi() *server.Multi { return n.multi }

// NodeID reports the node's name (Options.NodeID or the default).
func (n *Node) NodeID() string { return n.opt.nodeID() }

// Close stops the anti-entropy loop. It does not close the underlying
// Multi (the caller owns it). Idempotent.
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
	return nil
}

func (n *Node) loop() {
	defer close(n.done)
	t := time.NewTicker(n.opt.pullInterval())
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.pull(true)
		}
	}
}

// PullNow synchronously pulls every peer for every local namespace,
// ignoring the backoff gate, and returns the joined errors (nil when
// every pull succeeded or short-circuited). Successful pulls merge
// even when others fail, so a partial cluster still converges.
func (n *Node) PullNow() error {
	return n.pull(false)
}

// pull runs one anti-entropy round. respectBackoff skips peers inside
// their failure-backoff window (the ticker path); PullNow does not.
func (n *Node) pull(respectBackoff bool) error {
	n.pullRounds.Add(1)
	names := make([]string, 0, 4)
	live := make(map[string]bool)
	for _, info := range n.multi.List() {
		names = append(names, info.Name)
		live[info.Name] = true
	}
	n.viewMu.Lock()
	for name := range n.views {
		if !live[name] { // deleted: its view must not outlive it
			delete(n.views, name)
		}
	}
	n.viewMu.Unlock()
	var errs []error
	for _, p := range n.peers {
		if respectBackoff {
			p.mu.Lock()
			wait := time.Now().Before(p.nextAttempt)
			p.mu.Unlock()
			if wait {
				continue
			}
		}
		for _, name := range names {
			e, ok := n.multi.Get(name)
			if !ok { // deleted since List
				continue
			}
			err := n.pullOne(p, name, e)
			if err == nil {
				continue
			}
			if n.opt.OnPullError != nil {
				n.opt.OnPullError(p.url, name, err)
			}
			errs = append(errs, fmt.Errorf("peer %s ns %q: %w", p.url, name, err))
			if isTransport(err) {
				// The peer itself is unreachable/unhealthy: no point
				// probing its remaining namespaces this round.
				break
			}
		}
	}
	return errors.Join(errs...)
}

// errTransport marks peer-level failures (connection refused, timeout,
// 5xx): they trigger exponential backoff and skip the peer's remaining
// namespaces. Data-level rejections (bad blob, config mismatch) are
// counted but retried at the normal cadence — the peer is alive.
type errTransport struct{ err error }

func (e errTransport) Error() string { return e.err.Error() }
func (e errTransport) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var t errTransport
	return errors.As(err, &t)
}

// backoffJitter derives the deterministic backoff jitter fraction in
// [0, ¼) for one (node, peer) pair: an FNV-1a hash of the two names,
// folded into 1024 buckets. Distinct pairs land in distinct buckets
// with high probability, which is all the decorrelation needs.
func backoffJitter(nodeID, peerURL string) float64 {
	h := fnv.New64a()
	io.WriteString(h, nodeID)
	h.Write([]byte{0}) // keep ("ab","c") and ("a","bc") distinct
	io.WriteString(h, peerURL)
	return float64(h.Sum64()%1024) / 4096
}

// fail records a pull failure on p and classifies it.
func (p *peer) fail(err error, transport bool, interval, maxBackoff time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastErr = err.Error()
	if !transport {
		p.rejected++
		return err
	}
	p.failures++
	p.consecFails++
	backoff := interval
	for i := 1; i < p.consecFails && backoff < maxBackoff; i++ {
		backoff *= 2
	}
	if backoff > maxBackoff {
		backoff = maxBackoff
	}
	// Subtract the pair's jitter share so staggered windows never exceed
	// the documented MaxBackoff cap.
	backoff -= time.Duration(float64(backoff) * p.jitter)
	p.nextAttempt = time.Now().Add(backoff)
	return errTransport{err}
}

// pullOne fetches one namespace's state from one peer and, when it
// changed, decodes and stores it. Decoding happens entirely on private
// buffers: a truncated or corrupt blob is rejected without touching
// the previous remote state or the local engine.
//
// A conditional request also offers the delta exchange (A-IM: cov-delta,
// server.ServeState). A 226 answer is a delta on the stored state, which
// its Delta-Base must name; it is decoded like a full blob and folded into
// that state (server.FoldDelta), giving byte for byte what a full pull
// would have stored. A peer that ignores A-IM answers 200 as before.
func (n *Node) pullOne(p *peer, name string, e *server.Engine) error {
	interval, maxBackoff := n.opt.pullInterval(), n.opt.maxBackoff()
	if interval < 0 {
		interval = 2 * time.Second // PullNow-only nodes still need a backoff unit
	}
	req, err := http.NewRequest(http.MethodGet,
		p.url+"/v1/cluster/sketch?ns="+url.QueryEscape(name), nil)
	if err != nil {
		return p.fail(err, false, interval, maxBackoff)
	}
	prev := p.state(name)
	if prev != nil && prev.etag != "" {
		req.Header.Set("If-None-Match", prev.etag)
		req.Header.Set(server.HeaderAIM, server.DeltaIM)
	}
	resp, err := n.cl.Do(req)
	if err != nil {
		return p.fail(err, true, interval, maxBackoff)
	}
	defer resp.Body.Close()

	delta := resp.StatusCode == http.StatusIMUsed
	switch {
	case resp.StatusCode == http.StatusNotModified:
		p.answered(true)
		return nil
	case resp.StatusCode == http.StatusNotFound:
		// The peer does not (or no longer does) serve this namespace:
		// not an error — drop any stale state so queries stop counting a
		// deleted dataset — but nothing to back off from either.
		p.mu.Lock()
		delete(p.ns, name)
		p.mu.Unlock()
		p.answered(false)
		return nil
	case resp.StatusCode >= 500:
		return p.fail(fmt.Errorf("peer returned %s", resp.Status), true, interval, maxBackoff)
	case delta:
		// Only a delta on exactly the state held here can be folded.
		if im, base := resp.Header.Get(server.HeaderIM), resp.Header.Get(server.HeaderDeltaBase); im != server.DeltaIM ||
			prev == nil || prev.etag == "" || base != prev.etag {
			return p.fail(fmt.Errorf("peer sent a %q delta on %s; this node holds %s", im, base, etagOf(prev)), false, interval, maxBackoff)
		}
	case resp.StatusCode != http.StatusOK:
		return p.fail(fmt.Errorf("peer returned %s", resp.Status), false, interval, maxBackoff)
	}

	// Validate mode and weight signature from the headers before paying
	// for the body: a weighted/unweighted mismatch, a different engine
	// mode or a different weight table can never be merged, whatever the
	// bytes say.
	if wantW, gotW := e.Weighted(), resp.Header.Get(server.HeaderWeighted) == "1"; wantW != gotW {
		return p.fail(fmt.Errorf("mode mismatch: local weighted=%v, peer weighted=%v", wantW, gotW), false, interval, maxBackoff)
	}
	// The engine header is advisory (absent on pre-mode-plane peers):
	// validate it only when present. Absence is still safe — every mode's
	// decoder checks its own magic bytes, so a cross-mode blob is
	// rejected below.
	if got := resp.Header.Get(server.HeaderEngine); got != "" && got != string(e.ModeName()) {
		return p.fail(fmt.Errorf("mode mismatch: local engine %q, peer engine %q", e.ModeName(), got), false, interval, maxBackoff)
	}
	if e.Weighted() {
		if got := resp.Header.Get(server.HeaderWeightsSig); got != fmt.Sprint(e.WeightSig()) {
			return p.fail(fmt.Errorf("weight config mismatch: local signature %d, peer %s", e.WeightSig(), got), false, interval, maxBackoff)
		}
	}

	maxBytes := n.opt.maxStateBytes()
	var body bytes.Buffer
	if cl := resp.ContentLength; cl > 0 && cl <= maxBytes {
		// One allocation for a body of the announced size (MinRead spare so
		// ReadFrom sees EOF without growing) instead of doubling up from
		// 512 B; a peer that lies still meets the limit below.
		body.Grow(int(cl) + bytes.MinRead)
	}
	_, err = body.ReadFrom(io.LimitReader(resp.Body, maxBytes+1))
	p.mu.Lock()
	p.bytes += int64(body.Len())
	p.mu.Unlock()
	if err != nil {
		return p.fail(fmt.Errorf("reading state: %w", err), true, interval, maxBackoff)
	}
	if int64(body.Len()) > maxBytes {
		return p.fail(fmt.Errorf("state exceeds %d bytes", maxBytes), false, interval, maxBackoff)
	}

	// Decode through the namespace's engine mode: each mode validates its
	// own magic bytes and configuration (the sketch mode additionally
	// rejects a parameter mismatch — a peer built with different options).
	mode := e.EngineMode()
	decoded, err := mode.ReadState(&body)
	if err != nil {
		return p.fail(fmt.Errorf("decoding %s state: %w", e.ModeName(), err), false, interval, maxBackoff)
	}
	st := &remoteState{etag: resp.Header.Get("ETag"), state: decoded, version: n.versions.Add(1)}
	if delta {
		if st.state, err = server.FoldDelta(mode, prev.state, decoded); err != nil {
			return p.fail(fmt.Errorf("folding %s delta: %w", e.ModeName(), err), false, interval, maxBackoff)
		}
		st.base, st.delta = prev.version, decoded
	}
	st.edges = st.state.Stats().EdgesSeen

	p.mu.Lock()
	p.ns[name] = st
	p.pulls++
	if delta {
		p.deltas++
	}
	p.consecFails = 0
	p.nextAttempt = time.Time{}
	p.lastAnswer = time.Now()
	p.lastErr = ""
	p.mu.Unlock()
	return nil
}

// etagOf names the stored state a delta was checked against, for errors.
func etagOf(st *remoteState) string {
	if st == nil || st.etag == "" {
		return "no state"
	}
	return st.etag
}

// snapshot returns the cluster-view snapshot for namespace name: the
// local engine snapshot folded with every peer's last-known state.
// With no remote state it is the local snapshot itself; otherwise the
// merged view is cached until the local snapshot or any remote state
// changes, so a read-heavy node pays one merge per state change, not
// per query. fresh forces a local coordinator merge first (the remote
// side refreshes are the pull loop's job — queries never block on the
// network).
//
// A changed view is folded rather than rebuilt when every input is
// unchanged or has moved by exactly one delta since the cached view was
// built — the local snapshot by its own (server.Snapshot.Delta), a peer by
// the 226 it was pulled with: the new view is the cached one merged with
// those deltas, byte for byte the rebuild (DESIGN.md §11, with peers in
// the role of shards). Anything else — a peer that appeared or answered
// 404, a full pull, two local snapshots or two pulls since the view, a
// new engine instance — rebuilds.
func (n *Node) snapshot(name string, e *server.Engine, fresh bool) (*server.Snapshot, error) {
	var (
		local *server.Snapshot
		err   error
	)
	if fresh {
		local, err = e.Refresh()
	} else {
		local, err = e.Snapshot()
	}
	if err != nil {
		return nil, err
	}
	remotes := make([]*remoteState, len(n.peers))
	versions := make([]uint64, len(n.peers))
	edges, pulled := local.IngestedEdges, false
	for i, p := range n.peers {
		if st := p.state(name); st != nil {
			remotes[i], versions[i], pulled = st, st.version, true
			edges += st.edges
		}
	}
	if !pulled {
		return local, nil
	}

	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	old := n.views[name]
	if old != nil && old.local == local.ID() && slices.Equal(old.peers, versions) {
		n.viewReuses.Add(1)
		return old.snap, nil
	}

	// Frozen states are only read by the merge, so the cached view, the
	// local snapshot state and the stored remote states and deltas go in as
	// they are; the merged output is privately owned.
	states, folded := foldInputs(old, local, remotes)
	if !folded {
		states = append(states[:0], local.State())
		for _, st := range remotes {
			if st != nil {
				states = append(states, st.state)
			}
		}
	}
	snap, err := server.MergeSnapshot(e.EngineMode(), n.viewSeq.Add(1), edges, states)
	if err != nil {
		return nil, err
	}
	n.views[name] = &view{local: local.ID(), peers: versions, snap: snap}
	if folded {
		n.viewFolds.Add(1)
	} else {
		n.viewRebuilds.Add(1)
	}
	return snap, nil
}

// foldInputs returns the cached view's state and one delta per input that
// moved, when every input is unchanged or one delta away from what old was
// built from; folded is false otherwise.
func foldInputs(old *view, local *server.Snapshot, remotes []*remoteState) (states []server.FrozenState, folded bool) {
	if old == nil {
		return nil, false
	}
	states = append(states, old.snap.State())
	if id := local.ID(); id != old.local {
		base, delta, ok := local.Delta()
		if !ok || base != old.local {
			return states, false
		}
		states = append(states, delta)
	}
	for i, st := range remotes {
		switch was := old.peers[i]; {
		case st == nil && was == 0:
		case st == nil || was == 0: // answered 404, or appeared
			return states, false
		case st.version == was:
		case st.delta != nil && st.base == was:
			states = append(states, st.delta)
		default:
			return states, false
		}
	}
	return states, true
}

// Query answers q for namespace name from the cluster-wide merged
// view: local snapshot + every peer's last-known state. Unreachable
// peers never block — their last pulled state keeps serving until the
// anti-entropy loop replaces it. q.Refresh re-merges the local engine
// only; pair with PullNow for a fully fresh cluster answer. The query is
// counted on the namespace's engine, and the cached view runs its greedy
// once like any snapshot (server.Engine.QuerySnapshot).
func (n *Node) Query(name string, q server.Query) (*server.QueryResult, error) {
	e, ok := n.multi.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", server.ErrNamespaceUnknown, name)
	}
	snap, err := n.snapshot(name, e, q.Refresh)
	if err != nil {
		return nil, err
	}
	return e.QuerySnapshot(snap, q)
}

// PeerStats reports one peer's anti-entropy accounting.
type PeerStats struct {
	// URL is the peer's base URL.
	URL string `json:"url"`
	// Pulls counts states successfully fetched and stored, Deltas the
	// share of them that came as a 226 delta on the stored state;
	// NotModified counts conditional requests short-circuited by the
	// peer's ETag (unchanged state, no body transferred).
	Pulls       int64 `json:"pulls"`
	Deltas      int64 `json:"deltas"`
	NotModified int64 `json:"not_modified"`
	// BytesReceived sums the response bodies read from the peer: full
	// blobs and deltas, rejected ones included.
	BytesReceived int64 `json:"bytes_received"`
	// Failures counts transport-level failures (unreachable, timeout,
	// 5xx) — these back off exponentially; ConsecutiveFailures is the
	// current streak and NextAttempt the end of the backoff window.
	Failures            int64     `json:"failures"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	NextAttempt         time.Time `json:"next_attempt,omitempty"`
	// Rejected counts data-level rejections: oversized or undecodable
	// blobs and mode/weight/parameter mismatches. Rejected state is
	// never merged; the previous good state keeps serving.
	Rejected int64 `json:"rejected"`
	// LastError is the most recent failure or rejection ("" after a
	// subsequent success).
	LastError string `json:"last_error,omitempty"`
	// Namespaces maps namespace → ingested-edge total of the last
	// pulled state, the freshness of this peer's contribution.
	Namespaces map[string]int64 `json:"namespaces,omitempty"`

	lastAnswer time.Time // last pull the peer answered; feeds /metrics only
}

// NodeStats reports the node's cluster accounting.
type NodeStats struct {
	// NodeID echoes Options.NodeID.
	NodeID string `json:"node_id"`
	// PullRounds counts anti-entropy rounds (ticker and PullNow).
	PullRounds int64 `json:"pull_rounds"`
	// ViewRebuilds counts cluster views merged from every input,
	// ViewFolds those merged from the previous view and the inputs' deltas;
	// ViewReuses counts queries served from an unchanged cached view.
	ViewRebuilds int64 `json:"view_rebuilds"`
	ViewFolds    int64 `json:"view_folds"`
	ViewReuses   int64 `json:"view_reuses"`
	// Peers holds per-peer accounting, in Options.Peers order.
	Peers []PeerStats `json:"peers"`
}

// Stats returns a consistent snapshot of the node's peer bookkeeping.
func (n *Node) Stats() NodeStats {
	st := NodeStats{
		NodeID:       n.opt.nodeID(),
		PullRounds:   n.pullRounds.Load(),
		ViewRebuilds: n.viewRebuilds.Load(),
		ViewFolds:    n.viewFolds.Load(),
		ViewReuses:   n.viewReuses.Load(),
	}
	for _, p := range n.peers {
		p.mu.Lock()
		ps := PeerStats{
			URL:                 p.url,
			Pulls:               p.pulls,
			Deltas:              p.deltas,
			NotModified:         p.notModified,
			BytesReceived:       p.bytes,
			Failures:            p.failures,
			ConsecutiveFailures: p.consecFails,
			NextAttempt:         p.nextAttempt,
			Rejected:            p.rejected,
			LastError:           p.lastErr,
			lastAnswer:          p.lastAnswer,
		}
		if len(p.ns) > 0 {
			ps.Namespaces = make(map[string]int64, len(p.ns))
			for name, st := range p.ns {
				ps.Namespaces[name] = st.edges
			}
		}
		p.mu.Unlock()
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// AppendMetrics exports the node's pull and view accounting on /metrics
// (server.MetricsSource), one family at a time with a sample per peer.
func (n *Node) AppendMetrics(w *server.MetricsWriter) {
	st := n.Stats()
	perPeer := func(name, help string, v func(PeerStats) int64, extra ...server.Label) {
		for _, ps := range st.Peers {
			w.Counter(name, help, append([]server.Label{{Name: "peer", Value: ps.URL}}, extra...), float64(v(ps)))
		}
	}
	const pullsHelp = "States pulled from the peer: stored from a full blob, folded from a 226 delta, or answered 304."
	perPeer("covserved_cluster_pulls_total", pullsHelp,
		func(ps PeerStats) int64 { return ps.Pulls - ps.Deltas }, server.Label{Name: "kind", Value: "full"})
	perPeer("covserved_cluster_pulls_total", pullsHelp,
		func(ps PeerStats) int64 { return ps.Deltas }, server.Label{Name: "kind", Value: "delta"})
	perPeer("covserved_cluster_pulls_total", pullsHelp,
		func(ps PeerStats) int64 { return ps.NotModified }, server.Label{Name: "kind", Value: "not_modified"})
	perPeer("covserved_cluster_pull_bytes_total", "Response body bytes read from the peer, full blobs and deltas.",
		func(ps PeerStats) int64 { return ps.BytesReceived })
	const failHelp = "Pulls from the peer that failed: transport (unreachable, timeout, 5xx; backs off) or rejected (bad blob or delta, config mismatch)."
	perPeer("covserved_cluster_pull_failures_total", failHelp,
		func(ps PeerStats) int64 { return ps.Failures }, server.Label{Name: "class", Value: "transport"})
	perPeer("covserved_cluster_pull_failures_total", failHelp,
		func(ps PeerStats) int64 { return ps.Rejected }, server.Label{Name: "class", Value: "rejected"})
	now := time.Now()
	for _, ps := range st.Peers {
		if !ps.lastAnswer.IsZero() {
			w.Gauge("covserved_cluster_last_pull_age_seconds", "Seconds since the peer last answered a pull (a state stored, 304 or 404); absent before the first.",
				[]server.Label{{Name: "peer", Value: ps.URL}}, now.Sub(ps.lastAnswer).Seconds())
		}
	}
	const viewHelp = "Cluster views built: rebuilt from every input, or folded from the previous view and the inputs' deltas."
	w.Counter("covserved_cluster_view_builds_total", viewHelp, []server.Label{{Name: "kind", Value: "rebuild"}}, float64(st.ViewRebuilds))
	w.Counter("covserved_cluster_view_builds_total", viewHelp, []server.Label{{Name: "kind", Value: "fold"}}, float64(st.ViewFolds))
}
