package streamcover

import (
	"net/http"

	"repro/internal/cluster"
	"repro/internal/server"
)

// ClusterOptions configures a hub's membership in a multi-node
// coverage cluster (see internal/cluster). Each node ingests its own
// partition of the edge stream into its hub; an anti-entropy loop
// pulls every peer's serialized sketches and cluster queries answer
// from the merged view — bit-identical to a single hub fed the whole
// stream, degree caps binding or not (the sketch's mergeability result,
// the same property that makes shards exact). A negative PullInterval
// disables the background loop, so that PullNow drives the exchange.
type ClusterOptions = cluster.Options

// ClusterNode is a hub joined to a cluster: the hub keeps working
// exactly as before (ingest, namespaces, snapshots — all local), and
// the node adds the exchange plane on top. Mount Handler to serve the
// cluster HTTP surface; Close leaves the cluster without closing the
// hub.
type ClusterNode struct {
	node *cluster.Node
}

// JoinCluster attaches the hub to a cluster of peers. The hub's
// namespaces are pulled from every peer by name: a namespace
// participates when the peer serves one with the same name, mode,
// weight table and sketch parameters (mismatches are rejected and
// counted, never merged). Close the returned node before the hub.
func (h *Hub) JoinCluster(opt ClusterOptions) (*ClusterNode, error) {
	node, err := cluster.NewNode(h.multi, opt)
	if err != nil {
		return nil, err
	}
	return &ClusterNode{node: node}, nil
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
	return c.node.Query(namespace, server.Query{Algo: server.AlgoKCover, K: k, Refresh: fresh})
}

// Stats reports the node's anti-entropy accounting: per-peer pull,
// short-circuit, failure and rejection counters.
func (c *ClusterNode) Stats() cluster.NodeStats { return c.node.Stats() }

// Close stops the anti-entropy loop and leaves the cluster. The hub
// itself stays open. Idempotent.
func (c *ClusterNode) Close() error { return c.node.Close() }
