package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick_golden.txt")

// TestQuickGolden pins every experiment's quick-mode output, rendered as
// `kv3d-bench -run all -quick` prints it (without the wall-clock
// footers on stderr): a changed simulator constant anywhere changes a
// table and fails here. Regenerate after an intended change with
//
//	go test ./internal/experiments -run TestQuickGolden -update
func TestQuickGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range IDs() {
		r, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tab := range r.Tables {
			tab.Render(&got)
		}
	}
	path := filepath.Join("testdata", "quick_golden.txt")
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
		t.Fatalf("quick-mode output drifted from %s; run with -update if intended\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
