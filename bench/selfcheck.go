package main

import (
	"fmt"
	"math"
	"slices"
)

// selfcheck is the tool the benchmark's own acceptance is judged with:
// two sets of -repeat runs of the current tree, interleaved and with
// the workload order alternating, so that drift and order effects land
// in both sets. Run r of either set uses seed+r. For every end-to-end
// metric and workload it prints both medians, both quartile spreads and
// PASS or FAIL against the metric's bound, by the rules the benchmark
// contract states: the spread (first to third quartile, as a share of
// the median) stays within the bound, except for setup_s, and neither
// median is worse than the other by more than the bound. A held-out
// seed (seed+repeat) is then run twice per workload: coverage_ratio and
// state_bytes are deterministic and must repeat exactly.
func (h *harness) selfcheck(todo []*workloadDef) int {
	reps := h.opts.repeat
	sets := [2]map[string][]*report{{}, {}}
	ok := true
	for i := 0; i < 2*reps; i++ {
		set, r := i%2, i/2
		order := slices.Clone(todo)
		if (r+set)%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			rep, err := h.runOnce(w, h.opts.seed+uint64(r), false)
			if err != nil {
				fmt.Fprintf(h.stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			fmt.Fprintf(h.stdout, "set %d run %d %-13s correct=%v failed=%d/%d %.1fs\n", set+1, r+1, w.Name, rep.Correct, rep.Failed, rep.Attempted, rep.WallS)
			ok = ok && rep.Correct
			sets[set][w.Name] = append(sets[set][w.Name], rep)
		}
	}
	fmt.Fprintf(h.stdout, "\n%-13s %-20s %14s %14s %8s %8s %6s  verdict\n", "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "bound")
	for _, w := range todo {
		for i, def := range endToEnd {
			var s [2]spread
			for set := range sets {
				vals := make([]float64, 0, reps)
				for _, rep := range sets[set][w.Name] {
					vals = append(vals, rep.EndToEnd[i].Value)
				}
				s[set] = spreadOf(vals)
			}
			verdict := "PASS"
			if def.Name != "setup_s" && math.Max(s[0].share(), s[1].share()) > def.Bound {
				verdict = "FAIL spread"
			}
			if worse(def, s[0].median, s[1].median) > def.Bound || worse(def, s[1].median, s[0].median) > def.Bound {
				verdict = "FAIL medians"
			}
			ok = ok && verdict == "PASS"
			fmt.Fprintf(h.stdout, "%-13s %-20s %14.6g %14.6g %7.2f%% %7.2f%% %5.1f%%  %s\n",
				w.Name, def.Name, s[0].median, s[1].median, 100*s[0].share(), 100*s[1].share(), 100*def.Bound, verdict)
		}
	}
	held := h.opts.seed + uint64(reps)
	fmt.Fprintf(h.stdout, "\nheld-out seed %d, two runs each:\n", held)
	for _, w := range todo {
		var runs [2]*report
		for i := range runs {
			rep, err := h.runOnce(w, held, false)
			if err != nil {
				fmt.Fprintf(h.stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			ok = ok && rep.Correct
			runs[i] = rep
		}
		for i, def := range endToEnd {
			if def.Name != "coverage_ratio" && def.Name != "state_bytes" {
				continue
			}
			a, b := runs[0].EndToEnd[i].Value, runs[1].EndToEnd[i].Value
			verdict := "PASS repeats exactly"
			if a != b {
				verdict, ok = "FAIL differs", false
			}
			fmt.Fprintf(h.stdout, "%-13s %-20s %14.9g %14.9g  correct=%v,%v  %s\n", w.Name, def.Name, a, b, runs[0].Correct, runs[1].Correct, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(h.stdout, "\nselfcheck: FAIL")
		return 1
	}
	fmt.Fprintln(h.stdout, "\nselfcheck: PASS")
	return 0
}

// worse is how much worse `to` is than `from`, as a share of `from`, in
// the metric's own direction (negative when it is better).
func worse(def metricDef, from, to float64) float64 {
	if from == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (from - to) / from
	}
	return (to - from) / from
}
