package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
)

// metricValue is one reported number: name, unit and direction from the
// metric tables, the value, and for timings the distribution behind it.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	Dist   *dist   `json:"dist,omitempty"`
}

// report is the typed result of one workload run.
type report struct {
	Workload  string         `json:"workload"`
	Why       string         `json:"why"`
	Seed      uint64         `json:"seed"`
	Seconds   int            `json:"seconds"`
	Scale     string         `json:"scale"`
	Traced    bool           `json:"traced"`
	Env       envBlock       `json:"env"`
	Sizes     map[string]int `json:"sizes"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Checks    []check        `json:"checks"`
	// EndToEnd always comes from the untraced process run.
	EndToEnd []metricValue `json:"end_to_end"`
	// Phases are the numbers of single workload phases and the counters
	// scraped from the servers after that run.
	Phases []metricValue `json:"phases"`
	// Timings are the distributions behind the latency numbers.
	Timings map[string]dist `json:"timings"`
	// PerLayer, TraceFile and Spans are filled by a traced run.
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	TraceFile string        `json:"trace_file,omitempty"`
	Spans     []spanSummary `json:"spans,omitempty"`
	WallS     float64       `json:"wall_s"`
}

func (h *harness) newReport(w *workloadDef, rc *runCtx, res *procResult, traced bool) *report {
	rep := &report{
		Workload: w.Name, Why: w.Why, Seed: rc.seed, Seconds: h.opts.seconds, Scale: h.opts.scale,
		Traced: traced, Env: h.env, Sizes: res.sizes,
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Checks: res.checks, Timings: res.dists,
	}
	rep.Sizes["edges_per_epoch"] = rc.inst.edges()
	values := map[string]float64{
		"setup_s":            res.setupS,
		"ingest_edges_per_s": float64(res.ingestOps) / res.ingestWall,
		"fresh_query_p50_ms": median(res.fresh),
		"server_cpu_s":       res.cpu.total(),
		"server_rss_mb":      res.rssMB,
		"state_bytes":        float64(res.stateBytes),
		"coverage_ratio":     rc.inst.coverageRatio(res.sets),
	}
	for _, def := range endToEnd {
		mv := metricValue{Name: def.Name, Unit: def.Unit, Better: def.Better, Value: values[def.Name]}
		if def.Name == "fresh_query_p50_ms" {
			d := res.dists["fresh_query_ms"]
			mv.Dist = &d
		}
		rep.EndToEnd = append(rep.EndToEnd, mv)
	}
	for _, def := range perLayer {
		if v, ok := res.phase[def.Name]; ok {
			rep.Phases = append(rep.Phases, metricValue{Name: def.Name, Unit: def.Unit, Better: def.Better, Value: v})
		}
	}
	return rep
}

// setPerLayer fills PerLayer with every per-layer metric, in table
// order; a metric whose phase or layer this workload does not run
// reports 0.
func (r *report) setPerLayer(values map[string]float64) {
	for _, def := range perLayer {
		r.PerLayer = append(r.PerLayer, metricValue{Name: def.Name, Unit: def.Unit, Better: def.Better, Value: values[def.Name]})
	}
}

func (r *report) print(w io.Writer, asJSON bool) {
	if asJSON {
		data, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(w, "{\"error\": %q}\n", err.Error())
			return
		}
		fmt.Fprintln(w, string(data))
		return
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d scale=%s traced=%v  (%.1fs wall)\n", r.Workload, r.Seed, r.Seconds, r.Scale, r.Traced, r.WallS)
	e := r.Env
	fmt.Fprintf(w, "   env: commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s tmp_dir_fs=%s\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel, e.Kernel, e.TmpDirFS)
	fmt.Fprint(w, "   sizes:")
	for _, k := range slices.Sorted(maps.Keys(r.Sizes)) {
		fmt.Fprintf(w, " %s=%d", k, r.Sizes[k])
	}
	fmt.Fprintln(w)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "phases and scraped counters", r.Phases)
	if len(r.Timings) > 0 {
		fmt.Fprintln(w, "   timings:")
		for _, k := range slices.Sorted(maps.Keys(r.Timings)) {
			fmt.Fprintf(w, "     %-34s %s\n", k, r.Timings[k])
		}
	}
	if r.Traced {
		printMetrics(w, "per-layer (traced ladder + process run)", r.PerLayer)
		fmt.Fprintf(w, "   trace: %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "   checks: correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "     %s %s %s\n", mark, c.Name, c.Detail)
	}
}

func (d dist) String() string {
	if d.HighPct > 0 {
		return fmt.Sprintf("p50=%.4g p%g=%.4g n=%d", d.P50, d.HighPct, d.High, d.N)
	}
	return fmt.Sprintf("p50=%.4g n=%d", d.P50, d.N)
}

func printMetrics(w io.Writer, title string, ms []metricValue) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "   %s:\n", title)
	for _, m := range ms {
		extra := ""
		if m.Dist != nil {
			extra = "  " + m.Dist.String()
		}
		fmt.Fprintf(w, "     %-34s %14.6g %-8s (%s is better)%s\n", m.Name, m.Value, m.Unit, m.Better, extra)
	}
}

// contractLine renders the benchmark contract's result object: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. Over several repeats it carries the medians.
func contractLine(reps []*report, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	pick := func(r *report) []metricValue {
		if traced {
			return r.PerLayer
		}
		return r.EndToEnd
	}
	for _, r := range reps {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for i, m := range pick(reps[0]) {
		vals := make([]float64, len(reps))
		for j, r := range reps {
			vals[j] = pick(r)[i].Value
		}
		out.Metrics[m.Name] = mv{median(vals), m.Unit}
	}
	data, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(data)
}

// spread is the quartile summary the contract judges steadiness by.
type spread struct {
	median, q1, q3 float64
}

// share is the interquartile distance as a share of the median.
func (s spread) share() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

func spreadOf(vals []float64) spread {
	q1, q2, q3 := quartiles(vals)
	return spread{q2, q1, q3}
}

func printSpread(w io.Writer, workload string, reps []*report) {
	fmt.Fprintf(w, "== %s over %d runs: median [q1, q3] spread\n", workload, len(reps))
	for i, m := range reps[0].EndToEnd {
		vals := make([]float64, len(reps))
		for j, r := range reps {
			vals[j] = r.EndToEnd[i].Value
		}
		s := spreadOf(vals)
		fmt.Fprintf(w, "     %-34s %14.6g [%.6g, %.6g] %.2f%% %s\n", m.Name, s.median, s.q1, s.q3, 100*s.share(), m.Unit)
	}
}
