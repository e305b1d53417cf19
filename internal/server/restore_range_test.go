package server

import (
	"bytes"
	"strings"
	"testing"
)

// TestRestoreRejectsOutOfRangeSetID is the restore-side twin of the
// cluster test of the same name: a snapshot file whose sketch names a
// set the config does not have (one flipped bit in a set word; SKCH1
// has no checksum) must be refused when it is read, not start an engine
// whose every refresh fails. The weighted bank frames the same sketch
// bytes per class and inherits the check.
func TestRestoreRejectsOutOfRangeSetID(t *testing.T) {
	for _, mode := range []ModeName{ModeSketch, ModeWeighted} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := durConfig(mode)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range durBatches(cfg.NumSets, cfg.NumElems, 3, 5) {
				if _, err := e.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if _, err := e.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			e.Close()
			blob := buf.Bytes()
			if r, err := NewFromSnapshot(bytes.NewReader(blob), cfg); err != nil {
				t.Fatalf("pristine blob: %v", err)
			} else {
				r.Close()
			}

			// The blob's last word is the largest set id of the last element
			// (of the last class); bit 10 lifts it past NumSets = 40.
			blob[len(blob)-3] |= 0x04
			r, err := NewFromSnapshot(bytes.NewReader(blob), cfg)
			if err == nil {
				_, rerr := r.Refresh()
				r.Close()
				t.Fatalf("engine started from a blob with an out-of-range set id (its refresh: %v)", rerr)
			}
			if !strings.Contains(err.Error(), "restoring") || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("got %v, want a restore error naming the range", err)
			}
		})
	}
}
