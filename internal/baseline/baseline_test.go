package baseline

import (
	"math"
	"testing"
)

func TestPublishedOperatingPoints(t *testing.T) {
	// The contention model must reproduce the published Table 4 rows
	// within 5%.
	publishedTPSM := map[Version]float64{V14: 0.41, V16: 0.52, Bags: 3.15}
	for _, v := range []Version{V14, V16, Bags} {
		want := publishedTPSM[v]
		got := Reference(v).TPS64B() / 1e6
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: modeled %.3fM TPS, published %.2fM", v, got, want)
		}
	}
}

func TestPublishedPower(t *testing.T) {
	for v, want := range map[Version]float64{V14: 143, V16: 159, Bags: 285} {
		if got := Reference(v).PowerW(); got != want {
			t.Errorf("%s power = %v, want %v", v, got, want)
		}
	}
}

func TestGlobalLockPlateaus(t *testing.T) {
	// Adding threads to 1.4 must saturate; Bags must scale nearly
	// linearly (the Wiggins & Langston observation).
	v14at6 := XeonServer{V14, 6}.TPS64B()
	v14at24 := XeonServer{V14, 24}.TPS64B()
	if v14at24 > v14at6*1.6 {
		t.Fatalf("1.4 should plateau: 6t=%.0f 24t=%.0f", v14at6, v14at24)
	}
	bags1 := XeonServer{Bags, 1}.TPS64B()
	bags16 := XeonServer{Bags, 16}.TPS64B()
	if bags16 < bags1*15 {
		t.Fatalf("Bags should scale ~linearly: 1t=%.0f 16t=%.0f", bags1, bags16)
	}
}

func TestBagsOver6xUnmodified(t *testing.T) {
	// §3.6: Bags is "over 6x higher than an unmodified Memcached".
	ratio := Reference(Bags).TPS64B() / Reference(V14).TPS64B()
	if ratio < 6 {
		t.Fatalf("Bags/1.4 = %.1fx, paper says >6x", ratio)
	}
}

func TestTSSPPublishedFigures(t *testing.T) {
	ts := TSSP{}
	if got := ts.TPSPerWatt() / 1e3; math.Abs(got-17.5) > 0.5 {
		t.Fatalf("TSSP TPS/W = %.2fK, paper says 17.63K", got)
	}
	if ts.MemoryBytes() != 8<<30 {
		t.Fatal("TSSP memory")
	}
	if ts.Name() != "TSSP" {
		t.Fatal("TSSP name")
	}
}

func TestDerivedMetrics(t *testing.T) {
	b := Reference(Bags)
	if got := b.TPSPerWatt() / 1e3; math.Abs(got-11.1) > 0.6 {
		t.Fatalf("Bags TPS/W = %.1fK, paper says 11.1K", got)
	}
	if got := b.TPSPerGB() / 1e3; math.Abs(got-24.6) > 1.5 {
		t.Fatalf("Bags TPS/GB = %.1fK, paper says 24.6K", got)
	}
	if got := b.BandwidthBytesPerSec() / 1e9; math.Abs(got-0.20) > 0.02 {
		t.Fatalf("Bags bandwidth = %.2f GB/s, paper says 0.20", got)
	}
}

func TestZeroThreads(t *testing.T) {
	if (XeonServer{V14, 0}).TPS64B() != 0 {
		t.Fatal("zero threads should produce zero TPS")
	}
}

func TestPowerInterpolation(t *testing.T) {
	// Off the published point, power should move with thread count.
	if (XeonServer{Bags, 8}).PowerW() >= Reference(Bags).PowerW() {
		t.Fatal("fewer threads should draw less power")
	}
}

func TestNames(t *testing.T) {
	if Reference(V14).Name() != "Memcached 1.4 (6 threads)" {
		t.Fatalf("name = %q", Reference(V14).Name())
	}
	if Version(9).String() != "unknown-memcached" {
		t.Fatal("unknown version name")
	}
}
