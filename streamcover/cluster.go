package streamcover

import (
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// ClusterOptions configures a hub's membership in a multi-node
// coverage cluster (see internal/cluster). Each node ingests its own
// partition of the edge stream into its hub; an anti-entropy loop
// pulls every peer's serialized sketches and cluster queries answer
// from the merged view — bit-identical to a single hub fed the whole
// stream, degree caps binding or not (the sketch's mergeability result,
// the same property that makes shards exact).
type ClusterOptions struct {
	// NodeID names this node in cluster headers and stats.
	NodeID string
	// Peers lists the base URLs of the other cluster nodes; this node
	// must not list itself.
	Peers []string
	// PullInterval is the anti-entropy period (default 2s); negative
	// disables the background loop — drive exchange with PullNow.
	PullInterval time.Duration
	// MaxBackoff caps the exponential retry backoff applied to an
	// unreachable peer (default 30s).
	MaxBackoff time.Duration
	// Client issues the pull requests (default: 10s timeout).
	Client *http.Client
	// OnPullError observes failed or rejected pulls (may be nil).
	OnPullError func(peer, namespace string, err error)
}

// ClusterNode is a hub joined to a cluster: the hub keeps working
// exactly as before (ingest, namespaces, snapshots — all local), and
// the node adds the exchange plane on top. Mount Handler to serve the
// cluster HTTP surface; Close leaves the cluster without closing the
// hub.
type ClusterNode struct {
	hub  *Hub
	node *cluster.Node
}

// JoinCluster attaches the hub to a cluster of peers. The hub's
// namespaces are pulled from every peer by name: a namespace
// participates when the peer serves one with the same name, mode,
// weight table and sketch parameters (mismatches are rejected and
// counted, never merged). Close the returned node before the hub.
func (h *Hub) JoinCluster(opt ClusterOptions) (*ClusterNode, error) {
	node, err := cluster.NewNode(h.multi, cluster.Options{
		NodeID:       opt.NodeID,
		Peers:        opt.Peers,
		PullInterval: opt.PullInterval,
		MaxBackoff:   opt.MaxBackoff,
		Client:       opt.Client,
		OnPullError:  opt.OnPullError,
	})
	if err != nil {
		return nil, err
	}
	return &ClusterNode{hub: h, node: node}, nil
}

// Handler serves the cluster HTTP surface: everything the hub's
// multi-tenant API offers, plus /v1/cluster/{sketch,stats,pull}, with
// the query routes answering from the cluster-wide merged view.
func (c *ClusterNode) Handler(opt server.HTTPOptions) http.Handler {
	return cluster.NewHandler(c.node, opt)
}

// PullNow synchronously pulls every peer for every local namespace
// (ignoring failure backoff) and reports the joined errors. Pair with
// KCover for a query that reads the whole cluster's writes.
func (c *ClusterNode) PullNow() error { return c.node.PullNow() }

// KCover answers a max-k-cover query for the namespace from the
// cluster-wide merged view: this hub's snapshot folded with every
// peer's last-known state. fresh re-merges the local shards first (the
// network side is PullNow's job — queries never block on peers). On a
// weighted namespace the result is the weighted plane's, exactly as
// with Service.KCover.
func (c *ClusterNode) KCover(namespace string, k int, fresh bool) (*ServiceQueryResult, error) {
	res, err := c.node.Query(namespace, server.Query{Algo: server.AlgoKCover, K: k, Refresh: fresh})
	if err != nil {
		return nil, err
	}
	return fromEngineResult(res), nil
}

// Stats reports the node's anti-entropy accounting: per-peer pull,
// short-circuit, failure and rejection counters.
func (c *ClusterNode) Stats() cluster.NodeStats { return c.node.Stats() }

// Close stops the anti-entropy loop and leaves the cluster. The hub
// itself stays open. Idempotent.
func (c *ClusterNode) Close() error { return c.node.Close() }
