// The docs can only cite what exists: experiment ids that covbench runs,
// metric names that BENCHMARK.json declares, and no file of a retired
// harness.
package repro_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/tables"
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsCiteOnlyWhatExists holds the prose to the code.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	t.Run("covbench -run ids are registered", func(t *testing.T) {
		known := map[string]bool{"all": true}
		for _, id := range tables.ExperimentIDs() {
			known[id] = true
		}
		// Comment markers and line breaks may sit between the words.
		runID := regexp.MustCompile(`covbench[\s/]+-run[\s/]+([A-Za-z0-9-]+)`)
		for _, path := range []string{"README.md", "DESIGN.md", "doc.go", "cmd/covbench/main.go", ".claude/skills/verify/SKILL.md"} {
			for _, m := range runID.FindAllStringSubmatch(readDoc(t, path), -1) {
				if !known[m[1]] {
					t.Errorf("%s: `covbench -run %s` is not an experiment (have %v)", path, m[1], tables.ExperimentIDs())
				}
			}
		}
	})

	t.Run("dotted metric names are BENCHMARK.json rows", func(t *testing.T) {
		var contract struct {
			PerLayer []struct{ Name string } `json:"per_layer"`
		}
		if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &contract); err != nil {
			t.Fatal(err)
		}
		layers := map[string]bool{} // first segments: core, server, wire, …
		var names []string
		for _, m := range contract.PerLayer {
			if layer, _, dotted := strings.Cut(m.Name, "."); dotted {
				layers[layer] = true
				names = append(names, m.Name)
			}
		}
		// A token is a row, a dotted prefix of one, or a prefix + ".*".
		declared := func(tok string) bool {
			tok = strings.TrimSuffix(tok, ".*")
			for _, name := range names {
				if name == tok || strings.HasPrefix(name, tok+".") {
					return true
				}
			}
			return false
		}
		token := regexp.MustCompile("`([a-z0-9_]+(?:\\.[a-z0-9_]+)*(?:\\.\\*)?)`")
		fileName := regexp.MustCompile(`\.(go|json|jsonl|md|sh|txt|yml)$`)
		for _, path := range []string{"README.md", "DESIGN.md"} {
			for _, m := range token.FindAllStringSubmatch(readDoc(t, path), -1) {
				layer, _, dotted := strings.Cut(m[1], ".")
				if !dotted || !layers[layer] || fileName.MatchString(m[1]) {
					continue
				}
				if !declared(m[1]) {
					t.Errorf("%s cites `%s`, which BENCHMARK.json does not declare", path, m[1])
				}
			}
		}
	})

	t.Run("no trace of a retired harness file", func(t *testing.T) {
		out, err := exec.Command("git", "ls-files", "-z").Output()
		if err != nil {
			t.Skipf("tracked files unknown outside a git checkout: %v", err)
		}
		// CHANGES.md and ROADMAP.md are history, bench/README.md belongs to
		// the benchmark, ISSUE.md is the per-PR task statement. The pattern
		// is assembled so that this file does not contain it.
		exempt := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "bench/README.md": true, "ISSUE.md": true}
		retired := regexp.MustCompile("BENCH" + "_[a-z]|EXPERIMENTS" + `\.md`)
		for _, path := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
			if exempt[path] {
				continue
			}
			if retired.MatchString(path) {
				t.Errorf("tracked file %s is named after a retired harness file", path)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				continue // deleted in the working tree, not yet in the index
			}
			if loc := retired.FindIndex(b); loc != nil {
				line := 1 + bytes.Count(b[:loc[0]], []byte("\n"))
				t.Errorf("%s:%d mentions %q", path, line, b[loc[0]:loc[1]])
			}
		}
	})
}
