package serversim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenConfig is a deliberately tiny box (2 stacks x 1 core, 2ms) so
// the golden trace stays a few KB while still exercising every event
// kind: request/queue/service async spans, per-stack wait/serve lanes,
// route instants, and sampled queue-depth/busy counters.
func goldenConfig() Config {
	cfg := mercuryBox(2, 1)
	cfg.OfferedTPS = 15_000
	cfg.Duration = 2 * sim.Millisecond
	cfg.SampleEvery = 200 * sim.Microsecond
	cfg.Seed = 7
	return cfg
}

func runGoldenTrace(t *testing.T) []byte {
	t.Helper()
	cfg := goldenConfig()
	cfg.Trace = obs.NewFlightRecorder[sim.Time]("kv3d", 0)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGolden extends the determinism suite from results to traces:
// a fixed-seed run must serialize to byte-identical, Perfetto-loadable
// trace JSON, pinned against a checked-in golden file. Regenerate with
//
//	go test ./internal/serversim -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	got := runGoldenTrace(t)

	// Byte-identity across two in-process runs first: a failure here is
	// nondeterminism; a failure only against the file is drift (fix the
	// change or regenerate deliberately).
	if again := runGoldenTrace(t); !bytes.Equal(got, again) {
		t.Fatal("same seed produced different trace bytes across runs")
	}
	if !json.Valid(got) {
		t.Fatal("trace is not valid JSON")
	}

	path := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace drifted from golden (len %d vs %d); run with -update if intended",
			len(got), len(want))
	}
}

// TestTraceGoldenContent sanity-checks the golden run's trace contains
// the span kinds the tentpole promises, independent of exact bytes.
func TestTraceGoldenContent(t *testing.T) {
	got := runGoldenTrace(t)
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph+"/"+ev.Name]++
	}
	for _, want := range []string{
		"b/request", "e/request", "b/service", "e/service",
		"X/serve", "i/route",
	} {
		if counts[want] == 0 {
			t.Fatalf("golden trace missing %q events: %v", want, counts)
		}
	}
	// Sampled counters: per-stack queue depth must be present.
	if counts["C/serversim.stack-00.queue_depth"] == 0 {
		t.Fatalf("no sampled queue-depth counters: %v", counts)
	}
	if counts["b/request"] != counts["e/request"] {
		t.Fatalf("unbalanced request spans: %v", counts)
	}
}
