package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The testdata/sieve_* fixtures were written by the last commit that
// still had the "sieve" engine mode (PR 14): a v2 container holding one
// sieve namespace "retired", that namespace's WAL config sidecar, and
// its bare SIEV1 state blob. A node upgraded past the removal must
// refuse each by name — never panic, never skip the namespace silently.

// assertNamesRemovedMode checks that msg carries the engine string, the
// known modes and (when ns is non-empty) the namespace.
func assertNamesRemovedMode(t *testing.T, what, msg, ns string) {
	t.Helper()
	want := []string{`unknown engine "sieve"`, `"sketch"`, `"weighted"`, `"dynamic"`}
	if ns != "" {
		want = append(want, `"`+ns+`"`)
	}
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Errorf("%s: error %q does not name %s", what, msg, w)
		}
	}
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRemovedModeStateIsRefusedByName(t *testing.T) {
	t.Run("RestoreAll", func(t *testing.T) {
		m := NewMulti("")
		defer m.Close()
		n, err := m.RestoreAll(bytes.NewReader(readFixture(t, "sieve_ns.mcov2")))
		if err == nil || n != 0 || len(m.List()) != 0 {
			t.Fatalf("RestoreAll = %d, %v with %d namespaces; want a refusal", n, err, len(m.List()))
		}
		assertNamesRemovedMode(t, "RestoreAll", err.Error(), "retired")
	})

	t.Run("RecoverNamespaces", func(t *testing.T) {
		root := t.TempDir()
		if err := os.Mkdir(filepath.Join(root, "retired"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "retired", walConfigName),
			readFixture(t, "sieve_wal_config.json"), 0o644); err != nil {
			t.Fatal(err)
		}
		m := NewMulti("")
		defer m.Close()
		m.SetDurability(&WALConfig{Dir: root, Fsync: "off"})
		names, err := m.RecoverNamespaces()
		if err == nil || len(names) != 0 || len(m.List()) != 0 {
			t.Fatalf("RecoverNamespaces = %v, %v; want a refusal", names, err)
		}
		assertNamesRemovedMode(t, "RecoverNamespaces", err.Error(), "retired")
	})

	t.Run("ReadRestore", func(t *testing.T) {
		blob := readFixture(t, "sieve_v1.siev")
		// The flags the blob was written under (covserved -engine sieve).
		// ReadRestore has no namespace in scope; covserved names the file.
		cfg := Config{NumSets: 4, K: 2, Seed: 1, Shards: 1, Engine: "sieve"}
		_, err := ReadRestore(cfg, bytes.NewReader(blob))
		if err == nil {
			t.Fatal("ReadRestore accepted a sieve config")
		}
		assertNamesRemovedMode(t, "ReadRestore", err.Error(), "")
		// With the engine flag dropped the blob is not a sketch either.
		cfg.Engine = ""
		if _, err := ReadRestore(cfg, bytes.NewReader(blob)); err == nil {
			t.Fatal("ReadRestore decoded a SIEV1 blob as a sketch")
		}
	})

	t.Run("POST /v1/ns", func(t *testing.T) {
		m := NewMulti("")
		defer m.Close()
		ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{}))
		defer ts.Close()
		resp, out := doJSON(t, "POST", ts.URL+"/v1/ns",
			`{"name":"retired","num_sets":4,"k":2,"seed":1,"shards":1,"engine":"sieve"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("create with engine sieve: %d (%s), want 400", resp.StatusCode, out)
		}
		// The JSON body escapes the quotes the Go errors carry.
		assertNamesRemovedMode(t, "POST /v1/ns", strings.ReplaceAll(string(out), `\"`, `"`), "retired")
		if len(m.List()) != 0 {
			t.Fatalf("refused create left a namespace behind: %v", m.List())
		}
	})
}
