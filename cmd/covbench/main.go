// Command covbench regenerates the paper's tables and figures (the
// experiment index of DESIGN.md §4) and prints them as text tables.
//
// Usage:
//
//	covbench -run all                # every experiment, full sizes
//	covbench -run table1-kcover      # one experiment
//	covbench -run all -quick         # small sizes (seconds, for CI)
//	covbench -run thm31-kcover -csv  # machine-readable CSV output
//	covbench -run thm31-kcover -json # one JSON line per experiment
//
// The -json format is one line per experiment —
// {"experiment", "elapsed_ms", "tables": [{"title", "notes", "cols",
// "rows"}]}. Speed is not measured here: that is bench/ (BENCHMARK.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/stats"
	"repro/internal/tables"
)

// jsonResult is the -json output schema: one line per experiment.
type jsonResult struct {
	Experiment string         `json:"experiment"`
	ElapsedMS  int64          `json:"elapsed_ms"`
	Tables     []*stats.Table `json:"tables"`
}

func main() {
	var (
		run    = flag.String("run", "all", "experiment id or 'all' (see -list)")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		quick  = flag.Bool("quick", false, "shrink instance sizes (~10x faster)")
		trials = flag.Int("trials", 0, "trials per row (0 = default 3)")
		seed   = flag.Uint64("seed", 0, "master seed (0 = default)")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonl  = flag.Bool("json", false, "emit one JSON line per experiment instead of tables")
	)
	flag.Parse()

	if *list {
		for _, id := range tables.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := tables.Config{Quick: *quick, Trials: *trials, Seed: *seed}
	ids := []string{*run}
	if *run == "all" {
		ids = tables.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		tbls, err := tables.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "covbench: %v\n", err)
			os.Exit(1)
		}
		if *jsonl {
			line := jsonResult{
				Experiment: id,
				ElapsedMS:  time.Since(start).Milliseconds(),
				Tables:     tbls,
			}
			enc := json.NewEncoder(os.Stdout)
			if err := enc.Encode(line); err != nil {
				fmt.Fprintf(os.Stderr, "covbench: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		fmt.Printf("### experiment %s (%v)\n\n", id, time.Since(start).Round(time.Millisecond))
		for _, tbl := range tbls {
			var err error
			if *csv {
				err = tbl.CSV(os.Stdout)
			} else {
				err = tbl.Render(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "covbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
}
