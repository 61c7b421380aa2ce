package serversim

import (
	"testing"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
)

func mercuryBox(stacks, cores int) Config {
	return Config{
		Stack: stackmodel.Config{
			Core:          cpu.CortexA7(),
			Cache:         cache.L2MB2(),
			Mem:           memmodel.MustDRAM3D(10 * sim.Nanosecond),
			CoresPerStack: cores,
		},
		Stacks:     stacks,
		Op:         stackmodel.Get,
		ValueBytes: 64,
		Seed:       1,
	}
}

func TestRunValidation(t *testing.T) {
	cfg := mercuryBox(4, 8)
	cfg.Stacks = 0
	cfg.OfferedTPS = 1000
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero stacks accepted")
	}
	cfg = mercuryBox(4, 8)
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero offered rate accepted")
	}
}

func TestLightLoadLatencyIsServiceTime(t *testing.T) {
	cfg := mercuryBox(8, 8)
	nominal, err := NominalTPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OfferedTPS = nominal * 0.05
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := stackmodel.NewStack(cfg.Stack)
	service := ref.ServiceTime(stackmodel.Get, 64)
	// At 5% load, queueing is negligible: p50 ~ service time.
	if r.Latency.P50 > int64(service)*3/2 {
		t.Fatalf("light-load p50 %v >> service %v", sim.Duration(r.Latency.P50), service)
	}
	if r.SubMsFraction < 0.99 {
		t.Fatalf("light load must be sub-ms, got %.2f", r.SubMsFraction)
	}
	// Throughput tracks the offered rate (Poisson noise allowed).
	if r.CompletedTPS < cfg.OfferedTPS*0.9 || r.CompletedTPS > cfg.OfferedTPS*1.1 {
		t.Fatalf("completed %.0f vs offered %.0f", r.CompletedTPS, cfg.OfferedTPS)
	}
}

func TestQueueingGrowsNearSaturation(t *testing.T) {
	cfg := mercuryBox(8, 8)
	nominal, _ := NominalTPS(cfg)

	at := func(frac float64) Result {
		c := cfg
		c.OfferedTPS = nominal * frac
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	light := at(0.3)
	heavy := at(0.9)
	if heavy.Latency.P99 <= light.Latency.P99 {
		t.Fatalf("p99 must grow with load: %v -> %v",
			sim.Duration(light.Latency.P99), sim.Duration(heavy.Latency.P99))
	}
	if heavy.HottestUtilization <= light.HottestUtilization {
		t.Fatal("utilization must grow with load")
	}
}

func TestOverloadCapsThroughput(t *testing.T) {
	cfg := mercuryBox(4, 8)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 1.5
	cfg.Duration = 100 * sim.Millisecond
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompletedTPS > nominal*1.1 {
		t.Fatalf("completed %.0f exceeds capacity %.0f", r.CompletedTPS, nominal)
	}
	if r.HottestUtilization < 0.9 {
		t.Fatalf("overloaded box should be ~fully utilized, got %.2f", r.HottestUtilization)
	}
}

// TestHottestUtilizationCountsTheWindow holds HottestUtilization to
// the measured window: the warm-up and the drain after it are not
// diluting the busy time. At 30 % uniform load the hottest stack (the
// ring never balances exactly) is at least 30 % busy, and 105 % of
// nominal with Zipf keys saturates it.
func TestHottestUtilizationCountsTheWindow(t *testing.T) {
	cfg := mercuryBox(8, 8)
	cfg.Duration = 20 * sim.Millisecond
	cfg.Keys = 50_000
	nominal, _ := NominalTPS(cfg)
	hottest := func(frac, skew float64) float64 {
		c := cfg
		c.OfferedTPS, c.ZipfSkew = nominal*frac, skew
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r.HottestUtilization
	}
	if u := hottest(0.3, 0); u < 0.30 {
		t.Errorf("30%% uniform load: hottest utilization %.3f, want >= 0.30", u)
	}
	if u := hottest(1.05, 0.99); u < 0.95 {
		t.Errorf("105%% Zipf load: hottest utilization %.3f, want >= 0.95", u)
	}
}

func TestSkewErodesUsableCapacity(t *testing.T) {
	// At 70% of nominal load, uniform traffic holds the SLA; heavy
	// Zipf skew saturates the hottest stack and latency explodes.
	cfg := mercuryBox(16, 8)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 0.7
	cfg.Keys = 10_000

	uniform, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skewed := cfg
	skewed.ZipfSkew = 1.2
	hot, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if hot.HottestUtilization <= uniform.HottestUtilization {
		t.Fatal("skew must concentrate load")
	}
	if hot.SubMsFraction >= uniform.SubMsFraction {
		t.Fatalf("skew should hurt the SLA: %.2f vs %.2f", hot.SubMsFraction, uniform.SubMsFraction)
	}
}

func TestNominalMatchesLinearScaling(t *testing.T) {
	cfg := mercuryBox(96, 32)
	nominal, err := NominalTPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 96x32 A7 cores at ~11K TPS within the server (no wire): the
	// nominal capacity must be in the tens of millions.
	if nominal < 25e6 || nominal > 50e6 {
		t.Fatalf("nominal = %.1fM", nominal/1e6)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := mercuryBox(4, 4)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 0.5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletedTPS != b.CompletedTPS || a.Latency.P99 != b.Latency.P99 {
		t.Fatal("serversim must be deterministic for a fixed seed")
	}
}
