package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/weighted"
)

// configGoldens pins a namespace's configuration encoding: the bytes the
// snapshot-v2 container frames, the WAL sidecar holds and POST /v1/ns
// accepts. Mode names the configs imply are not spelled out, zero fields
// are omitted and MergeEvery is integer nanoseconds.
var configGoldens = []struct {
	name string
	cfg  Config
	want string
}{
	{"plain", Config{NumSets: 10, K: 2, Eps: 0.3, Seed: 5, EdgeBudget: 100, Shards: 2},
		`{"num_sets":10,"k":2,"eps":0.3,"seed":5,"edge_budget":100,"shards":2}`},
	{"sketch", Config{NumSets: 10, K: 2, Engine: ModeSketch, MergeEvery: 3 * time.Second, QueueDepth: 7, SpaceFactor: 1.5, NumElems: 99},
		`{"num_sets":10,"k":2,"num_elems":99,"space_factor":1.5,"queue_depth":7,"merge_every_ns":3000000000}`},
	{"weights", Config{NumSets: 10, K: 3, Weights: &WeightConfig{Table: []float64{1, 2, 0.5}, Default: 1}},
		`{"num_sets":10,"k":3,"weights":{"table":[1,2,0.5],"default":1}}`},
	{"weighted", Config{NumSets: 10, K: 3, Engine: ModeWeighted, Weights: &WeightConfig{Table: []float64{1, 2}}},
		`{"num_sets":10,"k":3,"weights":{"table":[1,2]}}`},
	{"dynamic", Config{NumSets: 10, K: 2, Engine: ModeDynamic, EdgeBudget: 48},
		`{"num_sets":10,"k":2,"edge_budget":48,"engine":"dynamic"}`},
}

func TestConfigEncodingGoldens(t *testing.T) {
	root := t.TempDir()
	m := NewMulti("")
	defer m.Close()
	m.SetDurability(&WALConfig{Dir: root, Fsync: "off"})
	created := map[string]NamespaceInfo{}
	for _, g := range configGoldens {
		e, err := m.Create(g.name, g.cfg)
		if err != nil {
			t.Fatalf("Create(%s): %v", g.name, err)
		}
		created[g.name] = infoFor(g.name, e, false)
		sidecar, err := os.ReadFile(filepath.Join(root, g.name, walConfigName))
		if err != nil {
			t.Fatal(err)
		}
		if string(sidecar) != g.want {
			t.Errorf("%s: WAL sidecar %s, want %s", g.name, sidecar, g.want)
		}
	}
	var container bytes.Buffer
	if err := m.WriteSnapshot(&container); err != nil {
		t.Fatal(err)
	}
	for _, g := range configGoldens {
		// The namespace's name chunk, then its config chunk.
		var frame bytes.Buffer
		writeChunk32(&frame, []byte(g.name))
		writeChunk32(&frame, []byte(g.want))
		if !bytes.Contains(container.Bytes(), frame.Bytes()) {
			t.Errorf("%s: the container frames no config %s", g.name, g.want)
		}
	}

	// The same JSON, posted with a name, creates the same namespace.
	hm := NewMulti("")
	defer hm.Close()
	ts := httptest.NewServer(NewMultiHandler(hm, HTTPOptions{}))
	defer ts.Close()
	for _, g := range configGoldens {
		body := `{"name":"` + g.name + `",` + g.want[1:]
		resp, out := doJSON(t, "POST", ts.URL+"/v1/ns", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/ns %s: %d: %s", body, resp.StatusCode, out)
		}
		var got NamespaceInfo
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		want := created[g.name]
		got.SnapshotSeq, want.SnapshotSeq = 0, 0 // a merge ticker may have run
		if got != want {
			t.Errorf("%s: POST /v1/ns echoed %+v, Create gave %+v", g.name, got, want)
		}
		e, _ := hm.Get(g.name)
		if enc, _ := json.Marshal(&e.cfg); string(enc) != g.want {
			t.Errorf("%s: posted namespace encodes as %s, want %s", g.name, enc, g.want)
		}
	}
}

// TestConfigEncodingKeys holds Config's JSON to the twelve configuration
// keys: a field added later either takes a tag here or opts out with
// json:"-", and the Go-only fields never reach a file or a client.
func TestConfigEncodingKeys(t *testing.T) {
	cfg := Config{
		NumSets: 10, K: 2, Eps: 0.3, Seed: 5, NumElems: 99,
		EdgeBudget: 100, SpaceFactor: 1.5, Shards: 2, QueueDepth: 7,
		MergeEvery: time.Second, Engine: ModeWeighted,
		Weights:        &WeightConfig{Table: []float64{1}, Default: 2},
		WAL:            &WALConfig{Dir: "wal", Fsync: "always"},
		OnRefreshError: func(error) {},
		RestoreState:   &weighted.BankView{},
	}
	enc, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"edge_budget", "engine", "eps", "k", "merge_every_ns", "num_elems",
		"num_sets", "queue_depth", "seed", "shards", "space_factor", "weights"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("Config JSON keys %v, want %v (from %s)", keys, want, enc)
	}
}

// TestCreateNamespaceIgnoresGoOnlyKeys sends the Go-only Config fields
// as JSON keys (the decoder matches field names case-insensitively): a
// client can neither place a log nor seed a state.
func TestCreateNamespaceIgnoresGoOnlyKeys(t *testing.T) {
	for _, armed := range []bool{false, true} {
		root, evil := t.TempDir(), filepath.Join(t.TempDir(), "evil")
		m := NewMulti("")
		if armed {
			m.SetDurability(&WALConfig{Dir: root, Fsync: "off"})
		}
		ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{}))
		dir, _ := json.Marshal(evil)
		body := `{"name":"ns","num_sets":10,"k":2,` +
			`"WAL":{"Dir":` + string(dir) + `},"wal":{"dir":` + string(dir) + `},` +
			`"RestoreState":{"Stats":1},"OnRefreshError":"x"}`
		resp, out := doJSON(t, "POST", ts.URL+"/v1/ns", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("armed=%v: POST /v1/ns: %d: %s", armed, resp.StatusCode, out)
		}
		e, _ := m.Get("ns")
		switch {
		case !armed && e.cfg.WAL != nil:
			t.Errorf("unarmed Multi: namespace got WAL %+v", e.cfg.WAL)
		case armed && (e.cfg.WAL == nil || e.cfg.WAL.Dir != filepath.Join(root, "ns")):
			t.Errorf("armed Multi: namespace WAL %+v, want dir %s", e.cfg.WAL, filepath.Join(root, "ns"))
		}
		if e.cfg.OnRefreshError != nil || e.IngestedEdges() != 0 {
			t.Errorf("armed=%v: client keys reached the engine", armed)
		}
		if _, err := os.Stat(evil); !os.IsNotExist(err) {
			t.Errorf("armed=%v: something appeared at the client's path: %v", armed, err)
		}
		ts.Close()
		m.Close()
	}
}
