package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans around the harness's calls into each layer. It
// is used from one goroutine (the ladder is sequential), keeps
// everything in memory and is written out once, at exit. Product code
// is not instrumented: a span's children are the calls the harness
// itself nests inside it.
type tracer struct {
	on    bool
	t0    time.Time
	names []string
	index map[string]int
	spans []span
	stack []int32
}

// span is one timed call: what ran, when, caused by which span, as part
// of which batch (or -1).
type span struct {
	name   int32
	parent int32 // span index, -1 at the root
	start  int64 // ns since the trace began
	end    int64
	batch  int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), index: map[string]int{}}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, batch int64) int32 {
	if !t.on {
		return -1
	}
	ni, ok := t.index[name]
	if !ok {
		ni = len(t.names)
		t.names = append(t.names, name)
		t.index[name] = ni
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: int32(ni), parent: parent, batch: batch, start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if !t.on {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is total time minus the part covered by child spans.
	SelfMs float64 `json:"self_ms"`
}

// summary computes per-name totals and self times. Children of one span
// never overlap (one goroutine opened them in sequence), so the covered
// part of a span is the sum of its children's durations.
func (t *tracer) summary() []spanSummary {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := make([]spanSummary, len(t.names))
	for i, n := range t.names {
		out[i].Name = n
	}
	for i, s := range t.spans {
		d := s.end - s.start
		o := &out[s.name]
		o.Count++
		o.TotalMs += float64(d) / 1e6
		o.SelfMs += float64(d-covered[i]) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write flushes the trace to dir/trace-<workload>.json: a name table, a
// per-name summary with self times, and every span as
// [id, parent, name, start_ns, end_ns, batch].
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	rows := make([][6]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [6]int64{int64(i), int64(s.parent), int64(s.name), s.start, s.end, s.batch}
	}
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Columns  []string      `json:"columns"`
		Names    []string      `json:"names"`
		Summary  []spanSummary `json:"summary"`
		Spans    [][6]int64    `json:"spans"`
	}{workload, []string{"id", "parent", "name", "start_ns", "end_ns", "batch"}, t.names, t.summary(), rows})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o666)
}
