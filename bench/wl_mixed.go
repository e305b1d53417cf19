package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

const mixedBudget = 200_000

// runMixedFresh reads beside writes. Part A: an open-loop wire producer
// at a rate far below capacity, and one closed-loop client (25 ms think
// time) asking for fresh answers — the refresh path (mailbox wait,
// clone, merge, materialize, cover index, greedy) does nearly all the
// work. Part B: ingest stopped, two closed-loop clients read kcover
// with k drawn from a Zipf law over 1..128 against the 64-entry result
// cache — the same query plane without refresh.
func runMixedFresh(rc *runCtx) (*procResult, error) {
	r := newProcResult()
	ops := &counter{}
	epochs := rc.sz.mixedEpochs
	r.sizes["epochs"] = epochs
	r.sizes["budget"] = mixedBudget
	r.sizes["reads_per_client"] = rc.sz.mixedReads

	p, setupS, err := timedSetup(rc, func(string) (*proc, error) {
		return startServer(rc, "mixed", "-budget", fmt.Sprint(mixedBudget))
	}, (*proc).kill)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	r.setupS = setupS

	conn, err := wire.Dial(p.wireAddr, wire.Hello{Namespace: server.DefaultNamespace})
	if err != nil {
		return nil, err
	}
	defer conn.Abort()

	// Part A.
	var (
		stop     = make(chan struct{})
		qDone    = make(chan struct{})
		staleMsg string
	)
	cpu0 := p.cpu()
	rss := startRSSSampler()
	go func() { // the fresh-query client
		defer close(qDone)
		for {
			wm := conn.Watermark()
			ts := time.Now()
			res, err := kcover(p.url, "", sketchK, true)
			ops.op(err)
			if err == nil {
				r.fresh = append(r.fresh, time.Since(ts).Seconds()*1e3)
				if res.SnapshotEdges < wm && staleMsg == "" {
					staleMsg = fmt.Sprintf("snapshot_edges %d < acked watermark %d read before the query", res.SnapshotEdges, wm)
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()
	t0 := time.Now()
	sent, lag, err := sendEpochsPaced(rc, conn, 0, epochs, 1024, rc.sz.mixedRate, ops)
	if err == nil {
		err = conn.Flush()
	}
	r.ingestWall = time.Since(t0).Seconds()
	close(stop)
	<-qDone
	if err != nil {
		return nil, fmt.Errorf("wire ingest: %w\n%s", err, p.logTail())
	}
	r.ingestOps = conn.Watermark()
	r.check("acked watermark == edges sent", r.ingestOps == sent, "acked %d, sent %d", r.ingestOps, sent)
	r.check("every fresh reply covers the acked watermark", staleMsg == "", "%s", staleMsg)
	r.phase["workload.gen.lag_p95_ms"] = percentile(lag, 0.95)

	// The final answer; it also publishes the snapshot part B reads.
	got, err := kcover(p.url, "", sketchK, true)
	ops.op(err)
	if err != nil {
		return nil, err
	}
	r.sets = got.Sets

	// Part B.
	var (
		wg    sync.WaitGroup
		reads [2][]float64
	)
	tb := time.Now()
	for c := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range zipfKs(rc.seed+uint64(c)+100, rc.sz.mixedReads) {
				ts := time.Now()
				_, err := kcover(p.url, "", k, false)
				ops.op(err)
				reads[c] = append(reads[c], time.Since(ts).Seconds()*1e3)
			}
		}()
	}
	wg.Wait()
	readWall := time.Since(tb).Seconds()
	r.cpu = p.cpu().sub(cpu0)
	r.rssMB = rss.mean()
	all := append(reads[0], reads[1]...)
	r.dists["read_ms"] = summarize(all)
	r.phase["read_qps"] = float64(len(all)) / readWall
	r.phase["read_p99_ms"] = percentile(all, 0.99)

	want, err := reference(mixedBudget, "", feedEpochs(rc, 0, epochs))
	if err != nil {
		return nil, err
	}
	ok, detail := sameAnswer(got, want, true)
	r.check("final answer == one-shard reference", ok, "%s", detail)
	scrapeWire(r, p.url)
	scrapeEngine(r, checkEngine(r, "default:", p.url, "", sent))
	if r.stateBytes, err = stateBytes(p.url + "/v1/snapshot"); err != nil {
		return nil, err
	}
	r.rssPeakMB = p.peakRSS()
	r.finish(ops)
	return r, nil
}
