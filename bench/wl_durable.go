package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

const durableBudget = 40_000

// runWireDurable is the production ingest path: one wire connection,
// batch 1024, closed loop, into a server with a WAL (fsync interval)
// and a snapshot file. A control goroutine checkpoints (POST
// /v1/snapshot: checkpoint + WAL truncation) when the acked watermark
// crosses 1/4, 1/2, 3/4 and 7/8 of the stream and asks for a fresh
// answer now and then. After the final Flush the server is SIGKILLed —
// the WAL then holds the last eighth of the stream — and restarted with
// the same flags; recovery_s runs from exec until /v1/stats reports the
// acked total.
func runWireDurable(rc *runCtx) (*procResult, error) {
	r := newProcResult()
	ops := &counter{}
	epochs := rc.sz.durableEpochs
	r.sizes["epochs"] = epochs
	r.sizes["budget"] = durableBudget

	flags := func(dir string) []string {
		return []string{
			"-budget", fmt.Sprint(durableBudget),
			"-wal-dir", filepath.Join(dir, "wal"), "-wal-fsync", "interval",
			"-snapshot-file", filepath.Join(dir, "state.skch"),
		}
	}
	type up struct {
		p   *proc
		dir string
	}
	u, setupS, err := timedSetup(rc, func(dir string) (up, error) {
		p, err := startServer(rc, "durable", flags(dir)...)
		return up{p, dir}, err
	}, func(u up) { u.p.kill() })
	if err != nil {
		return nil, err
	}
	r.setupS = setupS
	p := u.p

	conn, err := wire.Dial(p.wireAddr, wire.Hello{Namespace: server.DefaultNamespace})
	if err != nil {
		return nil, err
	}
	defer conn.Abort()

	per := int64(rc.inst.edges())
	cuts := []int64{per * int64(epochs/4), per * int64(epochs/2), per * int64(3*epochs/4), per * int64(7*epochs/8)}
	var (
		done        atomic.Bool
		ctlDone     = make(chan struct{})
		checkpoints []float64
	)
	cpu0 := p.cpu()
	rss := startRSSSampler()
	t0 := time.Now()
	go func() { // control: checkpoints at the cuts, sparse fresh queries
		defer close(ctlDone)
		next := 0
		lastQuery := time.Now()
		for {
			switch {
			case next < len(cuts) && conn.Watermark() >= cuts[next]:
				ts := time.Now()
				err := doJSON(http.MethodPost, p.url+"/v1/snapshot", nil, nil)
				ops.op(err)
				checkpoints = append(checkpoints, time.Since(ts).Seconds()*1e3)
				next++
			case time.Since(lastQuery) >= rc.sz.durableQueryEvery || (done.Load() && len(r.fresh) == 0):
				ts := time.Now()
				_, err := kcover(p.url, "", sketchK, true)
				ops.op(err)
				r.fresh = append(r.fresh, time.Since(ts).Seconds()*1e3)
				lastQuery = time.Now()
			case done.Load():
				// Only reached with every cut behind the final watermark, so
				// all four checkpoints have run (late ones on a stream too
				// short to overlap them).
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()
	sent, epochMs, err := sendEpochs(rc, conn, 0, epochs, 1024, ops)
	if err == nil {
		err = conn.Flush()
	}
	r.ingestWall = time.Since(t0).Seconds()
	done.Store(true)
	<-ctlDone
	if err != nil {
		return nil, fmt.Errorf("wire ingest: %w\n%s", err, p.logTail())
	}
	acked := conn.Watermark()
	r.ingestOps = acked
	r.check("acked watermark == edges sent", acked == sent, "acked %d, sent %d", acked, sent)
	r.check("all four checkpoints ran", len(checkpoints) == len(cuts), "%d of %d", len(checkpoints), len(cuts))
	r.dists["epoch_ms"] = summarize(epochMs)
	r.dists["checkpoint_ms"] = summarize(checkpoints)
	r.phase["checkpoint_p50_ms"] = median(checkpoints)
	scrapeWire(r, p.url)
	scrapeEngine(r, checkEngine(r, "before kill:", p.url, "", sent))

	// Crash and recover. kill records the first process's final CPU and
	// peak RSS before the signal.
	p.kill()
	r.cpu = p.lastCPU.sub(cpu0)
	r.rssPeakMB = p.lastRSS
	tr := time.Now()
	p2, err := startServerOn(rc, "durable-restarted", p.httpPort, p.wirePort, flags(u.dir)...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer p2.kill()
	st, err := engineStats(p2.url, "")
	recovery := time.Since(tr).Seconds()
	ops.op(err)
	if err != nil {
		return nil, err
	}
	r.phase["recovery_s"] = recovery
	r.cpu = r.cpu.add(p2.cpu())
	r.rssMB = rss.mean()
	r.check("after restart ingested_edges == acked watermark", st.IngestedEdges == acked, "recovered %d, acked %d", st.IngestedEdges, acked)

	got, err := kcover(p2.url, "", sketchK, true)
	ops.op(err)
	if err != nil {
		return nil, err
	}
	r.sets = got.Sets
	want, err := reference(durableBudget, "", feedEpochs(rc, 0, epochs))
	if err != nil {
		return nil, err
	}
	ok, detail := sameAnswer(got, want, true)
	r.check("recovered answer == one-shard reference", ok, "%s", detail)
	checkEngine(r, "after restart:", p2.url, "", sent)
	if r.stateBytes, err = stateBytes(p2.url + "/v1/snapshot"); err != nil {
		return nil, err
	}
	r.rssPeakMB = max(r.rssPeakMB, p2.peakRSS())
	r.finish(ops)
	return r, nil
}
