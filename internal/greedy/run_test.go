package greedy

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
)

// rule is one stopping rule with a name, so that a shared Run and a
// fresh one can be asked the same thing.
type rule struct {
	name string
	k    int // ≥ 0: a kcover leg, checked against naiveMaxCover too
	ask  func(r *Run) (Result, int)
}

// rulesFor lists k from 0 past exhaustion, partial-cover targets from 0
// past everything coverable, the full set cover and a caller-built rule.
func rulesFor(g *bipartite.Graph) []rule {
	var rules []rule
	for _, k := range []int{0, 1, 2, 3, 5, 8, 13, g.NumSets(), g.NumSets() + 7} {
		rules = append(rules, rule{fmt.Sprintf("kcover k=%d", k), k, func(r *Run) (Result, int) { return r.MaxCover(k) }})
	}
	full := g.CoveredElems()
	for _, target := range []int{0, 1, full / 4, full / 2, full * 3 / 4, full - 1, full + 5} {
		rules = append(rules, rule{fmt.Sprintf("partial target=%d", target), -1, func(r *Run) (Result, int) { return r.PartialCover(target) }})
	}
	rules = append(rules,
		rule{"setcover", -1, (*Run).SetCover},
		rule{"budgeted picked<4 && gain>=2", -1, func(r *Run) (Result, int) {
			return r.Budgeted(func(picked, covered, gain int) bool { return picked < 4 && gain >= 2 })
		}})
	return rules
}

// TestRunAnswersEveryRuleAsAFreshRunWould is the property the query plane
// rests on: one Run asked a shuffled sequence of stopping rules, repeats
// included, returns for each exactly what a fresh run asked only that
// returns — on every workload generator and both coverage engines — and
// reports an extension exactly when the answer is longer than anything
// asked before. The kcover legs are the textbook scan-all greedy's picks.
func TestRunAnswersEveryRuleAsAFreshRunWould(t *testing.T) {
	evaluators := []struct {
		name string
		make func(g *bipartite.Graph) bipartite.CoverageEvaluator
	}{
		{"stamp", func(g *bipartite.Graph) bipartite.CoverageEvaluator { return bipartite.NewCoverer(g) }},
		{"bitset", func(g *bipartite.Graph) bipartite.CoverageEvaluator { return bipartite.NewBitsetCoverer(g) }},
	}
	for seed := uint64(1); seed <= 2; seed++ {
		for _, inst := range equivInstances(seed * 100) {
			g := inst.G
			rules := rulesFor(g)
			for _, ev := range evaluators {
				rng := rand.New(rand.NewPCG(seed, uint64(len(ev.name))))
				order := append(slices.Clone(rules), rules...) // every rule twice
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				shared := NewRunWith(g, ev.make(g))
				have := 0
				for i, ru := range order {
					label := fmt.Sprintf("%s seed=%d %s ask %d (%s)", inst.Name, seed, ev.name, i, ru.name)
					got, extended := ru.ask(shared)
					want, _ := ru.ask(NewRunWith(g, ev.make(g)))
					resultsEqual(t, label, want, got)
					if wantExt := max(len(want.Sets)-have, 0); extended != wantExt {
						t.Fatalf("%s: reported %d new picks, want %d (the run held %d)", label, extended, wantExt, have)
					}
					have = max(have, len(want.Sets))
					if ru.k >= 0 {
						picks, covered := naiveMaxCover(g, ru.k)
						if !slices.Equal(got.Sets, picks) || got.Covered != covered {
							t.Fatalf("%s: picked %v covering %d, naive greedy %v covering %d",
								label, got.Sets, got.Covered, picks, covered)
						}
					}
				}
			}
		}
	}
}

// TestRunResultsArePrivate pins ownership: scribbling on a returned Sets
// or Gains slice changes no later answer, prefix or extension.
func TestRunResultsArePrivate(t *testing.T) {
	g := randomGraph(11, 30, 400, 0.08)
	want := MaxCover(g, 12)
	if len(want.Sets) < 8 {
		t.Fatalf("instance too small: %d picks", len(want.Sets))
	}
	r := NewRun(g)
	for _, k := range []int{5, 5, 3, 12, 8} { // extension, prefixes, extension, prefix
		res, _ := r.MaxCover(k)
		resultsEqual(t, fmt.Sprintf("k=%d", k), Result{
			Sets: want.Sets[:k], Gains: want.Gains[:k], Covered: g.Coverage(want.Sets[:k]),
		}, res)
		for i := range res.Sets {
			res.Sets[i], res.Gains[i] = -1, -1
		}
	}
}

// TestRunConcurrentAsks has 8 goroutines ask one run different k at once
// (run under -race in CI): whoever gets to extend the run, every answer
// is the one-shot answer for its k.
func TestRunConcurrentAsks(t *testing.T) {
	g := randomGraph(7, 60, 1500, 0.05)
	const workers, rounds = 8, 40
	want := make([]Result, workers*4+1)
	for k := range want {
		want[k] = MaxCover(g, k)
	}
	r := NewRun(g)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*4 + i*7) % len(want)
				got, _ := r.MaxCover(k)
				if !slices.Equal(got.Sets, want[k].Sets) || !slices.Equal(got.Gains, want[k].Gains) || got.Covered != want[k].Covered {
					t.Errorf("worker %d k=%d: got %v covering %d, want %v covering %d",
						w, k, got.Sets, got.Covered, want[k].Sets, want[k].Covered)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
