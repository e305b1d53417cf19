package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/server"
)

// TestPublishedViewsAreNeverWritten runs everything that reads a
// published view — Refresh, Checkpoint, the HTTP snapshot GET, a peer's
// pull of it and the cluster view fold — against one engine at once,
// under ingest, for both modes whose frozen state is made of core.Views
// (the sketch mode's one, the weighted mode's one per weight class).
// Views are shared without copies (the merged view is the snapshot's
// graph, its bytes, and an input of the next cluster fold), so the
// contract is that nobody writes to one: the race detector watches every
// access here, and each snapshot's bytes are recorded when it is first
// seen and compared again after the storm. Run with -race.
func TestPublishedViewsAreNeverWritten(t *testing.T) {
	for _, mode := range []server.ModeName{server.ModeSketch, server.ModeWeighted} {
		t.Run(string(mode), func(t *testing.T) { publishedViewsAreNeverWritten(t, mode) })
	}
}

func publishedViewsAreNeverWritten(t *testing.T, mode server.ModeName) {
	const rounds = 25
	ns, cfg := server.DefaultNamespace, testConfig(3)
	if mode == server.ModeWeighted {
		ns, cfg.Weights = "wcov", testWeights()
	}
	nodes := startCluster(t, 2, 3)
	a, b := nodes[0], nodes[1]
	ea, _ := a.multi.Get(ns)
	eb, _ := b.multi.Get(ns)
	if ea.ModeName() != mode {
		t.Fatalf("namespace %q runs the %s engine", ns, ea.ModeName())
	}
	edges := testEdges(t)
	third := len(edges) / 3
	if _, err := eb.Ingest(edges[:third]); err != nil {
		t.Fatal(err)
	}
	if err := a.node.PullNow(); err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		seen = map[*server.Snapshot][]byte{}
	)
	record := func(snap *server.Snapshot) error {
		var buf bytes.Buffer
		if err := snap.WriteState(&buf); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[snap]; ok && !bytes.Equal(prev, buf.Bytes()) {
			return fmt.Errorf("snapshot seq %d serialized differently the second time", snap.Seq)
		}
		seen[snap] = buf.Bytes()
		return nil
	}
	query := server.Query{Algo: server.AlgoKCover, K: tK}
	var refreshed int64 // the edge total of the refresh reader's last snapshot

	readers := []func(round int) error{
		func(int) error { // coordinator refresh
			// Each round refreshes over new edges, so the storm publishes
			// snapshots even when other test binaries starve the ingest
			// goroutine.
			for deadline := time.Now().Add(10 * time.Second); ea.IngestedEdges() == refreshed && time.Now().Before(deadline); {
				time.Sleep(20 * time.Microsecond)
			}
			snap, err := ea.Refresh()
			if err != nil {
				return err
			}
			refreshed = snap.IngestedEdges
			if _, err := ea.QuerySnapshot(snap, query); err != nil {
				return err
			}
			return record(snap)
		},
		func(int) error { // batch-aligned checkpoint
			snap, err := ea.Checkpoint()
			if err != nil {
				return err
			}
			return record(snap)
		},
		func(int) error { // HTTP snapshot GET, the blob a peer pulls
			resp, err := http.Get(a.srv.URL + "/v1/ns/" + ns + "/snapshot")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET snapshot: %s", resp.Status)
			}
			return nil
		},
		func(round int) error { // cluster view fold over a fresh local snapshot
			snap, err := a.node.snapshot(ns, ea, true)
			if err != nil {
				return err
			}
			if _, err := ea.QuerySnapshot(snap, query); err != nil {
				return err
			}
			return record(snap)
		},
		func(round int) error { // the peer moves, so the stored remote view is replaced
			lo := third + round*8
			if _, err := eb.Ingest(edges[lo : lo+8]); err != nil {
				return err
			}
			if err := a.node.PullNow(); err != nil {
				return err
			}
			return b.node.PullNow() // b pulls a's state while a refreshes
		},
	}

	stop := make(chan struct{})
	var ingest, wg sync.WaitGroup
	ingest.Add(1)
	go func() { // ingest into a until every reader is done
		defer ingest.Done()
		rest := edges[third:]
		for i := 0; ; i = (i + 64) % (len(rest) - 64) {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ea.Ingest(rest[i : i+64]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, read := range readers {
		wg.Add(1)
		go func(read func(int) error) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := read(round); err != nil {
					t.Error(err)
					return
				}
			}
		}(read)
	}
	wg.Wait()
	close(stop)
	ingest.Wait()

	if len(seen) < 3 {
		t.Fatalf("only %d distinct snapshots were published; the readers did not overlap ingest", len(seen))
	}
	for snap := range seen {
		if err := record(snap); err != nil {
			t.Fatal(err)
		}
	}

	// With the whole stream in (re-sent edges are idempotent), the
	// cluster answer is the single-engine answer.
	if _, err := ea.Ingest(edges[third:]); err != nil {
		t.Fatal(err)
	}
	single, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Ingest(append([]bipartite.Edge(nil), edges...)); err != nil {
		t.Fatal(err)
	}
	want, err := single.Query(server.Query{Algo: server.AlgoKCover, K: tK, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	got := queryCluster(t, a, ns, tK)
	assertSameSets(t, "cluster view after the storm", got.Sets, want.Sets)
	if got.SketchCoverage != want.SketchCoverage || got.PStar != want.PStar {
		t.Fatalf("cluster view (%d covered, p*=%v), single engine (%d, %v)",
			got.SketchCoverage, got.PStar, want.SketchCoverage, want.PStar)
	}
}
