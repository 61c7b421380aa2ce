package faults

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"kv3d/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fault plan")

func goldenGenConfig() GenConfig {
	return GenConfig{
		Seed:      42,
		Targets:   []string{"stack-00", "stack-01", "stack-02"},
		Horizon:   800 * sim.Millisecond,
		MeanGap:   60 * sim.Millisecond,
		MinOutage: 50 * sim.Millisecond,
		MaxOutage: 150 * sim.Millisecond,
		Kinds:     []Kind{NodeDown},
	}
}

// TestGoldenSchedule pins the byte encoding of a fixed-seed plan: same
// seed, byte-identical schedule, across runs and across machines.
// Regenerate deliberately with
//
//	go test ./internal/faults -run TestGoldenSchedule -update
func TestGoldenSchedule(t *testing.T) {
	p1, err := Generate(goldenGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(goldenGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := p1.Encode()
	if !bytes.Equal(got, p2.Encode()) {
		t.Fatal("same seed produced different plan bytes across generations")
	}
	path := filepath.Join("testdata", "plan_seed42.golden")
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
		t.Fatalf("plan drifted from golden (len %d vs %d); run with -update if intended:\n%s",
			len(got), len(want), got)
	}
}

func TestSeedsDiverge(t *testing.T) {
	cfg := goldenGenConfig()
	p1, _ := Generate(cfg)
	cfg.Seed = 43
	p2, _ := Generate(cfg)
	if bytes.Equal(p1.Encode(), p2.Encode()) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	cfg := goldenGenConfig()
	cfg.Kinds = []Kind{NodeDown, ConnReset, Latency, ReadStall, WriteStall, StackDegrade}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) == 0 {
		t.Fatal("generated an empty plan")
	}
	back, err := Parse(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Encode(), back.Encode()) {
		t.Fatal("encode/parse round trip lost information")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not-a-plan\nseed 1\nhorizon 2\n",
		"kv3d-fault-plan v1\nseed x\nhorizon 2\n",
		"kv3d-fault-plan v1\nseed 1\nhorizon 2\nevent nope\n",
		"kv3d-fault-plan v1\nseed 1\nhorizon 2\nevent 1 frobnicate a 0 0\n",
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

// TestGenerateInvariants checks the structural promises: events sorted,
// outages paired with revivals, never more than MaxConcurrentDown
// targets down, everything back up by the horizon.
func TestGenerateInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := goldenGenConfig()
		cfg.Seed = seed
		p, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		down := map[string]bool{}
		var last sim.Duration
		for _, ev := range p.Events {
			if ev.At < last {
				t.Fatalf("seed %d: events out of order", seed)
			}
			last = ev.At
			if ev.At > cfg.Horizon {
				t.Fatalf("seed %d: event after horizon", seed)
			}
			switch ev.Kind {
			case NodeDown:
				if down[ev.Target] {
					t.Fatalf("seed %d: %s taken down twice", seed, ev.Target)
				}
				down[ev.Target] = true
				n := 0
				for _, d := range down {
					if d {
						n++
					}
				}
				if n > 1 {
					t.Fatalf("seed %d: %d targets down at once (cap 1)", seed, n)
				}
			case NodeUp:
				if !down[ev.Target] {
					t.Fatalf("seed %d: %s revived while up", seed, ev.Target)
				}
				down[ev.Target] = false
			}
		}
		for target, d := range down {
			if d {
				t.Fatalf("seed %d: %s still down at end of plan", seed, target)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Horizon: sim.Second}); err == nil {
		t.Fatal("Generate accepted zero targets")
	}
	if _, err := Generate(GenConfig{Targets: []string{"a"}}); err == nil {
		t.Fatal("Generate accepted zero horizon")
	}
}

func TestScheduleCursor(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 30 * sim.Millisecond, Kind: NodeUp, Target: "b"},
		{At: 10 * sim.Millisecond, Kind: NodeDown, Target: "a"},
		{At: 20 * sim.Millisecond, Kind: NodeDown, Target: "b"},
	}}
	s := p.Schedule()
	if got := s.Due(5 * sim.Millisecond); len(got) != 0 {
		t.Fatalf("early Due returned %d events", len(got))
	}
	got := s.Due(20 * sim.Millisecond)
	if len(got) != 2 || got[0].Target != "a" || got[1].Target != "b" {
		t.Fatalf("Due(20ms) = %+v", got)
	}
	if s.Remaining() != 1 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	if got := s.Due(sim.Second); len(got) != 1 || got[0].Kind != NodeUp {
		t.Fatalf("final Due = %+v", got)
	}
	// The cursor never rewinds: a second pass is empty.
	if got := s.Due(sim.Second); len(got) != 0 {
		t.Fatalf("cursor rewound: %+v", got)
	}
	// The plan itself is untouched (Schedule sorts a copy).
	if p.Events[0].Target != "b" {
		t.Fatal("Schedule mutated the plan's event order")
	}
}

func TestKindStringParseInverse(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), back, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted bogus kind")
	}
}
