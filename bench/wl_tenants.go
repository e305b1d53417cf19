package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
	"repro/internal/wire"
)

const tenantsBudget = 40_000

// runTenants covers the other two planes and the other ingest currency.
// Part A: one HTTP client, closed loop, hand-encoded JSON batches of
// 4096 edges into the sketch namespace "append" — JSON decoding
// dominates. Part B: one wire connection with Hello.Ops, batch 1024,
// into the dynamic namespace "churn" as a sliding window (insert epoch
// e, delete epoch e-2), one fresh kcover after every pass; then the
// live window is deleted and the answer must be empty.
func runTenants(rc *runCtx) (*procResult, error) {
	r := newProcResult()
	ops := &counter{}
	httpEpochs, churnEpochs := rc.sz.httpEpochs, rc.sz.churnEpochs
	r.sizes["http_epochs"] = httpEpochs
	r.sizes["churn_epochs"] = churnEpochs
	r.sizes["budget"] = tenantsBudget

	p, setupS, err := timedSetup(rc, func(string) (*proc, error) {
		p, err := startServer(rc, "tenants", "-budget", fmt.Sprint(tenantsBudget))
		if err != nil {
			return nil, err
		}
		if err := createNamespace(p.url, "append", "sketch", tenantsBudget); err == nil {
			err = createNamespace(p.url, "churn", "dynamic", tenantsBudget)
		}
		if err != nil {
			p.kill()
			return nil, err
		}
		return p, nil
	}, (*proc).kill)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	r.setupS = setupS
	cpu0 := p.cpu()
	rss := startRSSSampler()

	// Part A: HTTP JSON into "append".
	var (
		edges   = make([]bipartite.Edge, 4096)
		body    []byte
		httpOps int64
	)
	ta := time.Now()
	err = rc.inst.eachBatch(0, httpEpochs, len(edges), func(ep, off, n int) error {
		rc.inst.fill(edges[:n], ep, off)
		body = appendEdgesJSON(body[:0], edges[:n])
		var resp struct {
			Accepted int `json:"accepted"`
		}
		err := doJSON(http.MethodPost, p.url+"/v1/ns/append/edges", body, &resp)
		if err == nil && resp.Accepted != n {
			err = fmt.Errorf("POST edges: accepted %d of %d", resp.Accepted, n)
		}
		ops.op(err)
		httpOps += int64(n)
		return err
	})
	httpWall := time.Since(ta).Seconds()
	if err != nil {
		return nil, fmt.Errorf("http ingest: %w\n%s", err, p.logTail())
	}
	r.phase["http_ingest_edges_per_s"] = float64(httpOps) / httpWall

	// Part B: wire ops into "churn".
	conn, err := wire.Dial(p.wireAddr, wire.Hello{Namespace: "churn", Ops: true})
	if err != nil {
		return nil, err
	}
	defer conn.Abort()
	var (
		opBuf     = make([]bipartite.Op, 1024)
		churnOps  int64
		churnWall float64
	)
	pass := func(kind bipartite.OpKind, epoch int) error {
		return rc.inst.eachBatch(epoch, epoch+1, len(opBuf), func(ep, off, n int) error {
			rc.inst.fillOps(opBuf[:n], kind, ep, off)
			err := conn.SendOps(opBuf[:n])
			ops.op(err)
			churnOps += int64(n)
			return err
		})
	}
	// step runs passes, flushes, and asks for a fresh answer; only the
	// passes and the flush count as ingest time.
	step := func(passes func() error) (*server.QueryResult, error) {
		ts := time.Now()
		err := passes()
		if err == nil {
			err = conn.Flush()
		}
		churnWall += time.Since(ts).Seconds()
		if err != nil {
			return nil, fmt.Errorf("wire ops: %w\n%s", err, p.logTail())
		}
		ts = time.Now()
		res, err := kcover(p.url, "churn", sketchK, true)
		ops.op(err)
		r.fresh = append(r.fresh, time.Since(ts).Seconds()*1e3)
		return res, err
	}
	// A fresh answer after every pass: with epoch e inserted three epochs
	// are live, and two again once epoch e-2 is deleted.
	var window *server.QueryResult
	for e := 0; e < churnEpochs; e++ {
		if window, err = step(func() error { return pass(bipartite.OpInsert, e) }); err != nil {
			return nil, err
		}
		if e < 2 {
			continue
		}
		if window, err = step(func() error { return pass(bipartite.OpDelete, e-2) }); err != nil {
			return nil, err
		}
	}
	// The dynamic state is sized while the window is live: once the window
	// is deleted it serializes to almost nothing.
	if r.stateBytes, err = stateBytes(p.url + "/v1/ns/churn/snapshot"); err != nil {
		return nil, err
	}
	empty, err := step(func() error {
		if err := pass(bipartite.OpDelete, churnEpochs-2); err != nil {
			return err
		}
		return pass(bipartite.OpDelete, churnEpochs-1)
	})
	if err != nil {
		return nil, err
	}
	r.cpu = p.cpu().sub(cpu0)
	r.rssMB = rss.mean()
	r.phase["churn_ops_per_s"] = float64(churnOps) / churnWall
	r.ingestOps = httpOps + churnOps
	r.ingestWall = httpWall + churnWall
	r.sets = window.Sets
	r.check("acked watermark == ops sent", conn.Watermark() == churnOps, "acked %d, sent %d", conn.Watermark(), churnOps)
	r.check("answer after deleting the window is empty", len(empty.Sets) == 0 && empty.SketchCoverage == 0,
		"sets=%v coverage=%d", empty.Sets, empty.SketchCoverage)

	// The sampler is linear, so the window answer must equal a one-shard
	// dynamic engine fed only the net graph (the two live epochs).
	wantWindow, err := reference(tenantsBudget, server.ModeDynamic, feedEpochs(rc, churnEpochs-2, churnEpochs))
	if err != nil {
		return nil, err
	}
	ok, detail := sameAnswer(window, wantWindow, false)
	r.check("churn window answer == one-shard reference on the net graph", ok, "%s", detail)

	gotAppend, err := kcover(p.url, "append", sketchK, true)
	ops.op(err)
	if err != nil {
		return nil, err
	}
	wantAppend, err := reference(tenantsBudget, "", feedEpochs(rc, 0, httpEpochs))
	if err != nil {
		return nil, err
	}
	ok, detail = sameAnswer(gotAppend, wantAppend, true)
	r.check("append answer == one-shard reference", ok, "%s", detail)

	scrapeWire(r, p.url)
	scrapeEngine(r, checkEngine(r, "append:", p.url, "append", httpOps))
	scrapeEngine(r, checkEngine(r, "churn:", p.url, "churn", churnOps))
	n, err := stateBytes(p.url + "/v1/ns/append/snapshot")
	if err != nil {
		return nil, err
	}
	r.stateBytes += n
	r.rssPeakMB = p.peakRSS()
	r.finish(ops)
	return r, nil
}
