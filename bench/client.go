package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/bipartite"
	"repro/internal/cluster"
	"repro/internal/server"
)

// httpClient is the one HTTP client of the generator process. Two idle
// connections per host cover the at-most-two client goroutines.
var httpClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	},
}

// doJSON issues one request and decodes a 2xx JSON reply into out (nil
// discards the body).
func doJSON(method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// nsPrefix is the route prefix of a namespace ("" = the default one).
func nsPrefix(ns string) string {
	if ns == "" {
		return "/v1"
	}
	return "/v1/ns/" + ns
}

// kcover runs GET …/query?algo=kcover on base (a server URL).
func kcover(base, ns string, k int, fresh bool) (*server.QueryResult, error) {
	url := base + nsPrefix(ns) + "/query?algo=kcover&k=" + strconv.Itoa(k)
	if fresh {
		url += "&refresh=1"
	}
	var res server.QueryResult
	if err := doJSON(http.MethodGet, url, nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func engineStats(base, ns string) (*server.Stats, error) {
	var st server.Stats
	if err := doJSON(http.MethodGet, base+nsPrefix(ns)+"/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func clusterStats(base string) (*cluster.NodeStats, error) {
	var st cluster.NodeStats
	if err := doJSON(http.MethodGet, base+"/v1/cluster/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// stateBytes is the size of the serialized merged state the server
// hands out at path (…/snapshot or /v1/cluster/sketch).
func stateBytes(url string) (int64, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return n, nil
}

// createNamespace POSTs /v1/ns with the shared sketch parameters.
func createNamespace(base, name, engine string, budget int) error {
	body, err := json.Marshal(map[string]any{
		"name": name, "num_sets": numSets, "k": sketchK, "eps": sketchEps,
		"seed": sketchSeed, "edge_budget": budget, "shards": shards, "engine": engine,
	})
	if err != nil {
		return err
	}
	return doJSON(http.MethodPost, base+"/v1/ns", body, nil)
}

// appendEdgesJSON hand-encodes {"edges":[[s,e],…]} — what a client
// without a JSON library in its hot path would send, and far cheaper
// than encoding/json so the generator stays off the critical path.
func appendEdgesJSON(dst []byte, edges []bipartite.Edge) []byte {
	dst = append(dst, `{"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendUint(dst, uint64(e.Set), 10)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, uint64(e.Elem), 10)
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

// metricsText scrapes /metrics and returns name{labels} → value.
func metricsText(base string) (map[string]float64, error) {
	resp, err := httpClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sumPrefix adds up every sample of one metric family across labels.
func sumPrefix(m map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}
