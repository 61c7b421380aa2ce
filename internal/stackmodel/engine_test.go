package stackmodel

import (
	"math"
	"testing"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/sim"
)

func dram(lat sim.Duration) memmodel.Device { return memmodel.MustDRAM3D(lat) }
func flash(lat sim.Duration) memmodel.Device {
	return memmodel.MustFlash3D(lat, 200*sim.Microsecond)
}

func mercuryA7(n int) Config {
	return Config{Core: cpu.CortexA7(), Cache: cache.L2MB2(), Mem: dram(10 * sim.Nanosecond), CoresPerStack: n}
}

func iridiumA7(n int) Config {
	return Config{Core: cpu.CortexA7(), Cache: cache.L2MB2(), Mem: flash(10 * sim.Microsecond), CoresPerStack: n}
}

func measure(t *testing.T, cfg Config, op Op, size int64, reqs int) Result {
	t.Helper()
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.Measure(op, size, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("nil memory accepted")
	}
	c := mercuryA7(0)
	if err := c.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	c = mercuryA7(64)
	if err := c.Validate(); err == nil {
		t.Fatal("64 cores exceed 2/port and must be rejected")
	}
	if err := mercuryA7(32).Validate(); err != nil {
		t.Fatalf("32 cores (2/port) should be valid: %v", err)
	}
}

func TestMeasureArgumentValidation(t *testing.T) {
	st, _ := NewStack(mercuryA7(1))
	if _, err := st.Measure(Get, 64, 0); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := st.Measure(Get, -1, 10); err == nil {
		t.Fatal("negative size accepted")
	}
}

// TestMercuryAnchorTPS pins the headline calibration: an A7 Mercury core
// with a 2MB L2 at 10ns DRAM sustains ~11 KTPS on 64B GETs (Table 4:
// 8.44M TPS over 768 cores).
func TestMercuryAnchorTPS(t *testing.T) {
	r := measure(t, mercuryA7(1), Get, 64, 100)
	if r.TPSPerCore < 10_000 || r.TPSPerCore > 12_000 {
		t.Fatalf("A7 Mercury 64B GET = %.0f TPS, want ~11K", r.TPSPerCore)
	}
}

// TestIridiumAnchorTPS pins the flash calibration: ~5 KTPS per A7 core
// (Table 4: 16.49M over 3072 cores ≈ 5.4K).
func TestIridiumAnchorTPS(t *testing.T) {
	r := measure(t, iridiumA7(1), Get, 64, 100)
	if r.TPSPerCore < 4_500 || r.TPSPerCore > 6_500 {
		t.Fatalf("A7 Iridium 64B GET = %.0f TPS, want ~5.4K", r.TPSPerCore)
	}
}

func TestA15RoughlyTripleA7WithL2(t *testing.T) {
	a7 := measure(t, mercuryA7(1), Get, 64, 100)
	cfg := mercuryA7(1)
	cfg.Core = cpu.MustCortexA15(1e9)
	a15 := measure(t, cfg, Get, 64, 100)
	ratio := a15.TPSPerCore / a7.TPSPerCore
	if ratio < 2.2 || ratio > 3.5 {
		t.Fatalf("A15/A7 = %.2f, paper says ~3x", ratio)
	}
}

func TestA15AdvantageShrinksWithoutL2(t *testing.T) {
	noL2 := func(core cpu.Core) Result {
		cfg := Config{Core: core, Cache: cache.None(), Mem: dram(100 * sim.Nanosecond), CoresPerStack: 1}
		return measure(t, cfg, Get, 64, 100)
	}
	withL2 := func(core cpu.Core) Result {
		cfg := Config{Core: core, Cache: cache.L2MB2(), Mem: dram(100 * sim.Nanosecond), CoresPerStack: 1}
		return measure(t, cfg, Get, 64, 100)
	}
	ratioNoL2 := noL2(cpu.MustCortexA15(1e9)).TPSPerCore / noL2(cpu.CortexA7()).TPSPerCore
	ratioL2 := withL2(cpu.MustCortexA15(1e9)).TPSPerCore / withL2(cpu.CortexA7()).TPSPerCore
	if ratioNoL2 >= ratioL2 {
		t.Fatalf("removing the L2 should narrow the A15 advantage: %.2f vs %.2f", ratioNoL2, ratioL2)
	}
	if ratioNoL2 > 2.6 {
		t.Fatalf("no-L2 A15/A7 = %.2f, paper says 1-2x", ratioNoL2)
	}
}

// TestL2HindersAtFastDRAM reproduces §6.2: at 10ns the L2 provides no
// benefit and may hinder.
func TestL2HindersAtFastDRAM(t *testing.T) {
	with := measure(t, mercuryA7(1), Get, 64, 100)
	cfg := mercuryA7(1)
	cfg.Cache = cache.None()
	without := measure(t, cfg, Get, 64, 100)
	if without.TPSPerCore < with.TPSPerCore {
		t.Fatalf("no-L2 (%.0f) should not lose to L2 (%.0f) at 10ns", without.TPSPerCore, with.TPSPerCore)
	}
}

// TestL2EssentialForFlash reproduces §6.2: removing the L2 from Iridium
// collapses TPS below 100.
func TestL2EssentialForFlash(t *testing.T) {
	cfg := iridiumA7(1)
	cfg.Cache = cache.None()
	r := measure(t, cfg, Get, 64, 20)
	if r.TPSPerCore >= 100 {
		t.Fatalf("no-L2 Iridium = %.0f TPS, paper says below 100", r.TPSPerCore)
	}
}

func TestLatencySensitivityWithoutL2(t *testing.T) {
	at := func(lat sim.Duration) float64 {
		cfg := Config{Core: cpu.CortexA7(), Cache: cache.None(), Mem: dram(lat), CoresPerStack: 1}
		return measure(t, cfg, Get, 64, 100).TPSPerCore
	}
	t10, t100 := at(10*sim.Nanosecond), at(100*sim.Nanosecond)
	if t10/t100 < 1.8 {
		t.Fatalf("no-L2 10ns/100ns = %.2f, should degrade ~2x", t10/t100)
	}
	withL2 := func(lat sim.Duration) float64 {
		cfg := Config{Core: cpu.CortexA7(), Cache: cache.L2MB2(), Mem: dram(lat), CoresPerStack: 1}
		return measure(t, cfg, Get, 64, 100).TPSPerCore
	}
	w10, w100 := withL2(10*sim.Nanosecond), withL2(100*sim.Nanosecond)
	if w10/w100 > 1.2 {
		t.Fatalf("with L2, latency sensitivity should be mild: %.2f", w10/w100)
	}
}

func TestPutSlowerThanGet(t *testing.T) {
	g := measure(t, mercuryA7(1), Get, 64, 100)
	p := measure(t, mercuryA7(1), Put, 64, 100)
	if p.TPSPerCore >= g.TPSPerCore {
		t.Fatalf("PUT (%.0f) should be slower than GET (%.0f)", p.TPSPerCore, g.TPSPerCore)
	}
}

func TestFlashPutBelow1K(t *testing.T) {
	r := measure(t, iridiumA7(1), Put, 64, 50)
	if r.TPSPerCore >= 1000 {
		t.Fatalf("Iridium PUT = %.0f TPS, paper says below 1,000", r.TPSPerCore)
	}
	if r.TPSPerCore < 300 {
		t.Fatalf("Iridium PUT = %.0f TPS, implausibly slow", r.TPSPerCore)
	}
}

func TestTPSDecreasesWithRequestSize(t *testing.T) {
	prev := math.Inf(1)
	for _, size := range []int64{64, 1024, 16 << 10, 256 << 10, 1 << 20} {
		r := measure(t, mercuryA7(1), Get, size, 30)
		if r.TPSPerCore >= prev {
			t.Fatalf("TPS should fall with size: %.0f at %d", r.TPSPerCore, size)
		}
		prev = r.TPSPerCore
	}
}

func TestNearLinearMultiCoreScaling(t *testing.T) {
	one := measure(t, mercuryA7(1), Get, 64, 50)
	for _, n := range []int{8, 16, 32} {
		r := measure(t, mercuryA7(n), Get, 64, 50)
		ideal := one.TPSPerCore * float64(n)
		if r.StackTPS < 0.95*ideal {
			t.Fatalf("n=%d scaled to %.0f, <95%% of ideal %.0f", n, r.StackTPS, ideal)
		}
		if r.StackTPS > 1.05*ideal {
			t.Fatalf("n=%d scaled to %.0f, >105%% of ideal %.0f (accounting bug?)", n, r.StackTPS, ideal)
		}
	}
}

func TestPortContentionVisibleForLargeFlashValues(t *testing.T) {
	// Two cores per port streaming 1MB values from flash must contend:
	// per-core throughput at n=32 drops below the n=1 value.
	one := measure(t, iridiumA7(1), Get, 1<<20, 10)
	many := measure(t, iridiumA7(32), Get, 1<<20, 10)
	perCore32 := many.StackTPS / 32
	if perCore32 >= one.TPSPerCore*0.98 {
		t.Fatalf("expected shared-port contention: n=1 %.1f vs n=32 per-core %.1f",
			one.TPSPerCore, perCore32)
	}
}

func TestRTTHistogramPopulated(t *testing.T) {
	r := measure(t, mercuryA7(2), Get, 64, 25)
	if r.Hist.Count() != 50 {
		t.Fatalf("hist=%d, want 50", r.Hist.Count())
	}
	if r.Hist.Percentile(99) < r.Hist.Percentile(50) {
		t.Fatal("percentiles out of order")
	}
}

// TestSubMillisecondSLA reproduces the abstract's claim: Mercury and
// Iridium service a majority of requests in the sub-millisecond range.
func TestSubMillisecondSLA(t *testing.T) {
	for name, cfg := range map[string]Config{"mercury": mercuryA7(8), "iridium": iridiumA7(8)} {
		r := measure(t, cfg, Get, 64, 50)
		frac := r.Hist.FractionBelow(int64(sim.Millisecond))
		if frac < 0.9 {
			t.Fatalf("%s: only %.0f%% of 64B GETs under 1ms", name, frac*100)
		}
	}
}

func TestBreakdownMatchesPaperGET(t *testing.T) {
	cfg := Config{Core: cpu.MustCortexA15(1e9), Cache: cache.L2MB2(), Mem: dram(10 * sim.Nanosecond), CoresPerStack: 1}
	st, _ := NewStack(cfg)
	b := st.PhaseBreakdown(Get, 64)
	if b.NetStack < 0.80 || b.NetStack > 0.92 {
		t.Fatalf("GET netstack share = %.2f, paper says ~87%%", b.NetStack)
	}
	if b.Memcache < 0.05 || b.Memcache > 0.15 {
		t.Fatalf("GET memcached share = %.2f, paper says ~10%%", b.Memcache)
	}
	if b.Hash < 0.01 || b.Hash > 0.05 {
		t.Fatalf("GET hash share = %.2f, paper says 2-3%%", b.Hash)
	}
	if math.Abs(b.Hash+b.Memcache+b.NetStack-1) > 1e-9 {
		t.Fatal("breakdown must sum to 1")
	}
}

func TestBreakdownMatchesPaperPUT(t *testing.T) {
	cfg := Config{Core: cpu.MustCortexA15(1e9), Cache: cache.L2MB2(), Mem: dram(10 * sim.Nanosecond), CoresPerStack: 1}
	st, _ := NewStack(cfg)
	b := st.PhaseBreakdown(Put, 64)
	if b.Memcache < 0.12 || b.Memcache > 0.35 {
		t.Fatalf("PUT memcached share = %.2f, paper says up to ~30%%", b.Memcache)
	}
	if b.NetStack < 0.6 {
		t.Fatalf("PUT netstack share = %.2f, should still dominate", b.NetStack)
	}
}

func TestNetStackShareGrowsWithSize(t *testing.T) {
	cfg := Config{Core: cpu.MustCortexA15(1e9), Cache: cache.L2MB2(), Mem: dram(10 * sim.Nanosecond), CoresPerStack: 1}
	st, _ := NewStack(cfg)
	small := st.PhaseBreakdown(Get, 64)
	big := st.PhaseBreakdown(Get, 1<<20)
	if big.NetStack <= small.NetStack {
		t.Fatalf("netstack share should grow with size: %.2f -> %.2f", small.NetStack, big.NetStack)
	}
	if big.Hash >= small.Hash {
		t.Fatal("hash share should shrink with size")
	}
}

func TestDeterministicResults(t *testing.T) {
	a := measure(t, mercuryA7(4), Get, 1024, 25)
	b := measure(t, mercuryA7(4), Get, 1024, 25)
	if a.MeanRTT != b.MeanRTT || a.StackTPS != b.StackTPS {
		t.Fatal("simulation must be deterministic")
	}
}

func TestOpString(t *testing.T) {
	if Get.String() != "GET" || Put.String() != "PUT" {
		t.Fatal("op names")
	}
}

// TestRTTMonotoneInMemoryLatencyProperty: for any pair of DRAM latencies
// within the sweep range, the slower device never yields a faster RTT
// (checked across cache configs and ops).
func TestRTTMonotoneInMemoryLatencyProperty(t *testing.T) {
	rng := sim.NewRand(31)
	for trial := 0; trial < 20; trial++ {
		l1 := sim.Duration(1+rng.Intn(999)) * sim.Nanosecond
		l2 := sim.Duration(1+rng.Intn(999)) * sim.Nanosecond
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		ca := cache.L2MB2()
		if trial%2 == 0 {
			ca = cache.None()
		}
		op := Get
		if trial%3 == 0 {
			op = Put
		}
		fast := measure(t, Config{Core: cpu.CortexA7(), Cache: ca, Mem: dram(l1), CoresPerStack: 1}, op, 256, 10)
		slow := measure(t, Config{Core: cpu.CortexA7(), Cache: ca, Mem: dram(l2), CoresPerStack: 1}, op, 256, 10)
		if slow.MeanRTT < fast.MeanRTT {
			t.Fatalf("trial %d: %v DRAM gave %v RTT but %v gave %v",
				trial, l2, slow.MeanRTT, l1, fast.MeanRTT)
		}
	}
}

// TestServiceTimeDecomposition: ServiceTime must equal the closed-loop
// RTT minus the network components, i.e. always be strictly less than
// the measured RTT and positive.
func TestServiceTimeDecomposition(t *testing.T) {
	for _, cfg := range []Config{mercuryA7(1), iridiumA7(1)} {
		st, err := NewStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc := st.ServiceTime(Get, 1024)
		if svc <= 0 {
			t.Fatal("service time must be positive")
		}
		res := measure(t, cfg, Get, 1024, 20)
		if svc >= res.MeanRTT {
			t.Fatalf("service %v should be below full RTT %v", svc, res.MeanRTT)
		}
		if res.MeanRTT.Seconds() > svc.Seconds()*1.5 {
			t.Fatalf("network share implausibly large: svc %v rtt %v", svc, res.MeanRTT)
		}
	}
}
