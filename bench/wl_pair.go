package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

const pairBudget = 200_000

// runClusterPair is the only workload where internal/cluster does the
// work. Two peers A and B (pulls are explicit: -pull-every -1s); A is
// preloaded during set-up; then an open-loop wire producer feeds B
// while a control goroutine, every 250 ms, makes A pull B's state and
// asks A for a fresh answer. fresh_query here is the pull plus the
// query: what a client pays for a cluster-wide read-your-writes answer.
func runClusterPair(rc *runCtx) (*procResult, error) {
	r := newProcResult()
	ops := &counter{}
	preload, epochs := rc.sz.pairPreload, rc.sz.pairEpochs
	r.sizes["preload_epochs"] = preload
	r.sizes["epochs"] = epochs
	r.sizes["budget"] = pairBudget

	type pair struct{ a, b *proc }
	tear := func(pr pair) {
		if pr.a != nil {
			pr.a.kill()
		}
		if pr.b != nil {
			pr.b.kill()
		}
	}
	pr, setupS, err := timedSetup(rc, func(string) (pair, error) {
		ports, err := freePorts(4)
		if err != nil {
			return pair{}, err
		}
		node := func(id string, httpPort, wirePort, peerPort int) (*proc, error) {
			return startServerOn(rc, "pair-"+id, httpPort, wirePort,
				"-budget", fmt.Sprint(pairBudget), "-node-id", id, "-pull-every=-1s",
				"-peers", fmt.Sprintf("http://127.0.0.1:%d", peerPort))
		}
		var pr pair
		if pr.a, err = node("a", ports[0], ports[1], ports[2]); err == nil {
			pr.b, err = node("b", ports[2], ports[3], ports[0])
		}
		if err == nil {
			var conn *wire.Conn
			if conn, err = wire.Dial(pr.a.wireAddr, wire.Hello{Namespace: server.DefaultNamespace}); err == nil {
				if _, _, err = sendEpochs(rc, conn, 0, preload, 1024, &counter{}); err == nil {
					err = conn.Close()
				} else {
					conn.Abort()
				}
			}
		}
		if err != nil {
			tear(pr)
			return pair{}, err
		}
		return pr, nil
	}, tear)
	if err != nil {
		return nil, err
	}
	defer tear(pr)
	r.setupS = setupS
	a, b := pr.a, pr.b

	conn, err := wire.Dial(b.wireAddr, wire.Hello{Namespace: server.DefaultNamespace})
	if err != nil {
		return nil, err
	}
	defer conn.Abort()
	var (
		done    atomic.Bool
		ctlDone = make(chan struct{})
		pulls   []float64
		queries []float64
	)
	cpu0 := a.cpu().add(b.cpu())
	rss := startRSSSampler()
	go func() { // control: pull then fresh query on A, on a 250 ms schedule
		defer close(ctlDone)
		const every = 250 * time.Millisecond
		start := time.Now()
		for i := 0; ; i++ {
			t0 := time.Now()
			err := doJSON(http.MethodPost, a.url+"/v1/cluster/pull", nil, nil)
			ops.op(err)
			t1 := time.Now()
			_, qerr := kcover(a.url, "", sketchK, true)
			ops.op(qerr)
			t2 := time.Now()
			if err == nil && qerr == nil {
				pulls = append(pulls, t1.Sub(t0).Seconds()*1e3)
				queries = append(queries, t2.Sub(t1).Seconds()*1e3)
				r.fresh = append(r.fresh, t2.Sub(t0).Seconds()*1e3)
			}
			if done.Load() {
				return
			}
			// Next tick of the schedule that is still ahead.
			next := start.Add(time.Duration(i+1) * every)
			for time.Until(next) <= 0 {
				i++
				next = start.Add(time.Duration(i+1) * every)
			}
			time.Sleep(time.Until(next))
		}
	}()
	t0 := time.Now()
	sent, lag, err := sendEpochsPaced(rc, conn, preload, preload+epochs, 1024, rc.sz.pairRate, ops)
	if err == nil {
		err = conn.Flush()
	}
	r.ingestWall = time.Since(t0).Seconds()
	done.Store(true)
	<-ctlDone
	if err != nil {
		return nil, fmt.Errorf("wire ingest: %w\n%s", err, b.logTail())
	}
	r.ingestOps = conn.Watermark()
	r.check("acked watermark == edges sent", r.ingestOps == sent, "acked %d, sent %d", r.ingestOps, sent)
	r.phase["workload.gen.lag_p95_ms"] = percentile(lag, 0.95)
	r.phase["pull_round_p50_ms"] = median(pulls)
	r.dists["pull_round_ms"] = summarize(pulls)
	r.dists["cluster_query_ms"] = summarize(queries)

	// Converge both nodes, then both must answer like one node that saw
	// the whole stream.
	var got [2]*server.QueryResult
	for i, n := range []*proc{a, b} {
		err := doJSON(http.MethodPost, n.url+"/v1/cluster/pull", nil, nil)
		ops.op(err)
		if err != nil {
			return nil, err
		}
		got[i], err = kcover(n.url, "", sketchK, true)
		ops.op(err)
		if err != nil {
			return nil, err
		}
	}
	r.cpu = a.cpu().add(b.cpu()).sub(cpu0)
	r.rssMB = rss.mean()
	r.sets = got[0].Sets
	want, err := reference(pairBudget, "", feedEpochs(rc, 0, preload+epochs))
	if err != nil {
		return nil, err
	}
	for i, name := range []string{"A", "B"} {
		ok, detail := sameAnswer(got[i], want, true)
		r.check(name+"'s answer == single-stream reference", ok, "%s", detail)
	}
	per := int64(rc.inst.edges())
	scrapeEngine(r, checkEngine(r, "A:", a.url, "", per*int64(preload)))
	scrapeEngine(r, checkEngine(r, "B:", b.url, "", sent))
	if cs, err := clusterStats(a.url); err == nil {
		var pulled, notModified, failures int64
		for _, ps := range cs.Peers {
			pulled += ps.Pulls
			notModified += ps.NotModified
			failures += ps.Failures + ps.Rejected
		}
		if pulled+notModified > 0 {
			r.phase["cluster.not_modified_share"] = float64(notModified) / float64(pulled+notModified)
		}
		r.phase["cluster.pull_failures"] = float64(failures)
	}
	for _, n := range []*proc{a, b} {
		scrapeWire(r, n.url)
		sz, err := stateBytes(n.url + "/v1/cluster/sketch")
		if err != nil {
			return nil, err
		}
		r.stateBytes += sz
		r.rssPeakMB = max(r.rssPeakMB, n.peakRSS())
	}
	r.finish(ops)
	return r, nil
}
