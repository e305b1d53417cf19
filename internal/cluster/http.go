package cluster

import (
	"net/http"

	"repro/internal/server"
)

// NewHandler wraps the multi-tenant covserved API with the cluster
// routes. Everything server.NewMultiHandler serves keeps working —
// ingest, namespace CRUD, snapshots, stats — with two changes:
//
//	GET  /v1/cluster/sketch?ns=…  → this node's local merged state for
//	                                the namespace (default namespace
//	                                when ns is omitted), as
//	                                application/octet-stream with ETag /
//	                                If-None-Match support — the blob
//	                                peers pull — or, to a request with
//	                                A-IM: cov-delta naming the previous
//	                                state, a 226 delta on it
//	                                (server.ServeState). Exactly the
//	                                local state: remote contributions
//	                                never re-enter the exchange (no
//	                                gossip echo).
//	GET  /v1/cluster/stats        → anti-entropy accounting (NodeStats)
//	POST /v1/cluster/pull         → synchronous PullNow (covcli uses it
//	                                to make a query read-your-writes
//	                                across the whole cluster)
//	GET  /v1/query, /v1/ns/{name}/query
//	                              → answered from the cluster-wide
//	                                merged view (local + every peer's
//	                                last-known state) instead of the
//	                                local engine only. Parameters are
//	                                unchanged; &refresh=1 re-merges the
//	                                local shards (never the network).
func NewHandler(n *Node, opt server.HTTPOptions) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", server.NewMultiHandler(n.multi, opt))

	resolve := func(r *http.Request) (string, *server.Engine, bool) {
		name := r.URL.Query().Get("ns")
		if name == "" {
			name = n.multi.DefaultName()
		}
		e, ok := n.multi.Get(name)
		return name, e, ok
	}

	mux.HandleFunc("/v1/cluster/sketch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			server.MethodNotAllowed(w, "GET, HEAD")
			return
		}
		name, e, ok := resolve(r)
		if !ok {
			server.ErrorJSON(w, http.StatusNotFound, "%v: %q", server.ErrNamespaceUnknown, name)
			return
		}
		w.Header().Set(server.HeaderNodeID, n.opt.nodeID())
		server.ServeState(e, w, r)
	})

	mux.HandleFunc("/v1/cluster/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			server.MethodNotAllowed(w, "GET")
			return
		}
		server.WriteJSON(w, http.StatusOK, n.Stats())
	})

	mux.HandleFunc("/v1/cluster/pull", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			server.MethodNotAllowed(w, "POST")
			return
		}
		if err := n.PullNow(); err != nil {
			// Partial pulls still merged what they could; report the
			// failures without pretending the round didn't happen.
			server.WriteJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	clusterQuery := func(name string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				server.MethodNotAllowed(w, "GET")
				return
			}
			ns := name
			if ns == "" { // unprefixed route: the directory's default
				ns = n.multi.DefaultName()
			}
			q, err := server.ParseQuery(r)
			if err != nil {
				server.ErrorJSON(w, http.StatusBadRequest, "%v", err)
				return
			}
			res, err := n.Query(ns, q)
			if err != nil {
				server.ErrorJSON(w, server.StatusFor(err), "%v", err)
				return
			}
			w.Header().Set(server.HeaderNodeID, n.opt.nodeID())
			server.WriteJSON(w, http.StatusOK, res)
		}
	}
	mux.HandleFunc("/v1/query", clusterQuery(""))
	mux.HandleFunc("/v1/ns/{name}/query", func(w http.ResponseWriter, r *http.Request) {
		clusterQuery(r.PathValue("name"))(w, r)
	})
	return mux
}
