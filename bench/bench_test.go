package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestTablesMatchBenchmarkJSON pins the harness's metric and workload
// tables to BENCHMARK.json: same names, units, directions and bounds,
// in the same order.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bm.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bm.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, harness %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bm.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bm.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better, 0}); got != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, harness %+v", i, got, perLayer[i])
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if seen[m.Name] {
			t.Errorf("%q is both an end-to-end and a per-layer metric", m.Name)
		}
	}
}

// contractResult is the benchmark contract's result line.
type contractResult struct {
	Correct   *bool  `json:"correct"`
	Attempted *int64 `json:"attempted"`
	Failed    *int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// smoke runs every workload at tiny scale and splits standard output
// into typed reports and contract lines.
func smoke(t *testing.T, trace string) ([]report, []contractResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "all", "-scale", "tiny", "-trace", trace, "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	children.Lock()
	left := len(children.live)
	children.Unlock()
	if left != 0 {
		t.Errorf("%d covserved processes left behind", left)
	}
	var reports []report
	var results []contractResult
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("non-JSON line on standard output: %q", line)
		}
		if _, ok := probe["workload"]; ok {
			var r report
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			reports = append(reports, r)
			continue
		}
		if len(probe) != 4 {
			t.Errorf("contract line has keys other than correct, attempted, failed, metrics: %q", line)
		}
		var c contractResult
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&c); err != nil {
			t.Fatalf("contract line: %v", err)
		}
		if c.Correct == nil || c.Attempted == nil || c.Failed == nil || c.Metrics == nil {
			t.Fatalf("contract line lacks a key: %q", line)
		}
		results = append(results, c)
	}
	if len(reports) != len(workloads) || len(results) != len(workloads) {
		t.Fatalf("%d reports and %d contract lines for %d workloads", len(reports), len(results), len(workloads))
	}
	return reports, results
}

// checkMetrics asserts that got is exactly defs — names, units and
// directions in table order, values finite and (nonZero) positive — and
// that the contract line carries the same names and values.
func checkMetrics(t *testing.T, workload string, defs []metricDef, got []metricValue, line contractResult, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) || len(line.Metrics) != len(defs) {
		t.Fatalf("%s: %d reported, %d on the contract line, %d defined", workload, len(got), len(line.Metrics), len(defs))
	}
	for i, def := range defs {
		m := got[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("%s: metric %d is %s (%s, %s), want %s (%s, %s)", workload, i, m.Name, m.Unit, m.Better, def.Name, def.Unit, def.Better)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (nonZero && m.Value == 0) {
			t.Errorf("%s: %s = %v", workload, m.Name, m.Value)
		}
		c, ok := line.Metrics[def.Name]
		if !ok || c.Value == nil || *c.Value != m.Value || c.Unit != def.Unit {
			t.Errorf("%s: contract line disagrees with the report on %s", workload, def.Name)
		}
	}
}

// TestSmoke keeps the harness alive: all four workloads against real
// covserved processes at tiny scale, traced, asserting that every
// check ran and passed and that every named metric is present and
// typed exactly as BENCHMARK.json lists it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts covserved processes")
	}
	reports, lines := smoke(t, "1")
	for i, r := range reports {
		w := workloads[i]
		if r.Workload != w.Name {
			t.Fatalf("report %d is for %q, want %q", i, r.Workload, w.Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Checks) == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%d", w.Name, r.Correct, r.Attempted, r.Failed, len(r.Checks))
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if !*lines[i].Correct || *lines[i].Failed != 0 || *lines[i].Attempted != r.Attempted {
			t.Errorf("%s: contract line disagrees with the report on correct/attempted/failed", w.Name)
		}
		// A traced run still reports the end-to-end metrics (from its
		// untraced process run); its contract line carries the per-layer ones.
		if len(r.EndToEnd) != len(endToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, want %d", w.Name, len(r.EndToEnd), len(endToEnd))
		}
		for j, m := range r.EndToEnd {
			if m.Name != endToEnd[j].Name || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %d is %s = %v", w.Name, j, m.Name, m.Value)
			}
		}
		checkMetrics(t, w.Name, perLayer, r.PerLayer, lines[i], false)
		if r.Env.GoVersion == "" || r.Env.NProc < 1 || r.Env.CPUModel == "" || r.Env.Kernel == "" || r.Env.TmpDirFS == "" || r.Env.Commit == "" {
			t.Errorf("%s: incomplete environment block %+v", w.Name, r.Env)
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
		ladder := map[string]float64{}
		for _, m := range r.PerLayer {
			ladder[m.Name] = m.Value
		}
		// The ladder rows themselves (everything but the single-phase
		// numbers and scraped counters) must all have measured something.
		for _, name := range []string{"workload.gen.ns_per_edge", "wire.loopback.ns_per_edge", "wal.append.ns_per_edge",
			"core.add_edges.ns_per_edge", "server.ingest.ns_per_edge", "server.ingest_ops.ns_per_op", "server.http_ingest.ns_per_edge",
			"server.refresh.ms", "greedy.max_cover.ms", "l0.recover.ms", "cluster.pull_now.ms", "streamcover.ingest.ns_per_edge"} {
			if ladder[name] <= 0 {
				t.Errorf("%s: ladder row %s = %v", w.Name, name, ladder[name])
			}
		}
		if len(r.Spans) == 0 {
			t.Errorf("%s: traced run without span summary", w.Name)
		}
	}
}

// TestUntracedContractLine checks the other half of the contract: an
// untraced run's result line carries exactly the end-to-end metrics.
func TestUntracedContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("starts covserved processes")
	}
	reports, lines := smoke(t, "0")
	for i, r := range reports {
		checkMetrics(t, r.Workload, endToEnd, r.EndToEnd, lines[i], true)
		if len(r.PerLayer) != 0 {
			t.Errorf("%s: untraced run reported per-layer metrics", r.Workload)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestTracerSelfTime: a span's self time is its duration minus what
// its children cover.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.names = []string{"parent", "child"}
	tr.spans = []span{
		{name: 0, parent: -1, start: 0, end: 100e6},
		{name: 1, parent: 0, start: 10e6, end: 40e6},
		{name: 1, parent: 0, start: 50e6, end: 70e6},
	}
	for _, s := range tr.summary() {
		switch s.Name {
		case "parent":
			if s.Count != 1 || s.TotalMs != 100 || s.SelfMs != 50 {
				t.Errorf("parent: %+v", s)
			}
		case "child":
			if s.Count != 2 || s.TotalMs != 50 || s.SelfMs != 50 {
				t.Errorf("child: %+v", s)
			}
		}
	}
}
