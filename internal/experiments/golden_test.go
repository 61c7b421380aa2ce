package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_golden.txt files")

// goldens pins each experiment's rendered output, as `kv3d-bench`
// prints it (without the wall-clock footers on stderr): a changed
// simulator constant anywhere changes a table and fails here. Quick mode
// covers every experiment; full mode covers every experiment except
// loadlatency, whose full sweep takes seconds (its quick mode is pinned).
var goldens = []struct {
	name string
	opts Options
	skip map[string]bool
}{
	{name: "quick", opts: Options{Quick: true}},
	{name: "full", skip: map[string]bool{"loadlatency": true}},
}

// TestGolden compares each mode with testdata/<mode>_golden.txt.
// Regenerate after an intended change with
//
//	go test ./internal/experiments -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			var got bytes.Buffer
			for _, id := range IDs() {
				if g.skip[id] {
					continue
				}
				r, err := Run(id, g.opts)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				for _, tab := range r.Tables {
					tab.Render(&got)
				}
			}
			path := filepath.Join("testdata", g.name+"_golden.txt")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s-mode output drifted from %s; run with -update if intended\ngot:\n%s\nwant:\n%s", g.name, path, got.Bytes(), want)
			}
		})
	}
}
