package memmodel

import (
	"testing"

	"kv3d/internal/sim"
)

func TestBankedDRAMValidation(t *testing.T) {
	if _, err := NewBankedDRAM(0); err == nil {
		t.Fatal("zero latency accepted")
	}
	if _, err := NewBankedDRAM(10 * sim.Microsecond); err == nil {
		t.Fatal("huge latency accepted")
	}
}

func TestBankedDRAMRowHitFastPath(t *testing.T) {
	d, err := NewBankedDRAM(10 * sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	first := d.Access(0) // cold: activate + cas
	hit := d.Access(64)  // same row: cas only
	if hit >= first {
		t.Fatalf("row hit (%v) must beat activation (%v)", hit, first)
	}
	if d.RowHitRate() != 0.5 {
		t.Fatalf("hit rate = %v", d.RowHitRate())
	}
}

func TestBankedDRAMConflictSlowPath(t *testing.T) {
	d, _ := NewBankedDRAM(10 * sim.Nanosecond)
	rowBytes := int64(DRAMPageBytes)
	banks := int64(DRAMBanksPerPort)
	d.Access(0)                            // open row 0 in bank 0
	conflict := d.Access(rowBytes * banks) // row 8 -> bank 0 again: precharge+activate
	cold := d.Access(rowBytes)             // bank 1, first touch: activate only
	if conflict <= cold {
		t.Fatalf("bank conflict (%v) must cost more than a cold activation (%v)", conflict, cold)
	}
	if conflict != d.ClosedPageLatency() {
		t.Fatalf("conflict latency %v should equal the closed-page path %v", conflict, d.ClosedPageLatency())
	}
}

// TestRandomAccessesJustifyClosedPageModel: metadata-style random
// accesses across the 256MB port space almost never hit an open row, so
// the paper's flat closed-page charge is the right model for them.
func TestRandomAccessesJustifyClosedPageModel(t *testing.T) {
	d, _ := NewBankedDRAM(10 * sim.Nanosecond)
	rng := sim.NewRand(7)
	var total sim.Duration
	const n = 50_000
	for i := 0; i < n; i++ {
		addr := int64(rng.Uint64() % (256 << 20))
		total += d.Access(addr)
	}
	if hr := d.RowHitRate(); hr > 0.02 {
		t.Fatalf("random access row-hit rate = %.3f, should be ~0", hr)
	}
	mean := float64(total) / n
	closed := float64(d.ClosedPageLatency())
	// Mean should be within 10% of the closed-page path (most accesses
	// pay precharge+activate+cas).
	if mean < closed*0.9 || mean > closed*1.1 {
		t.Fatalf("random mean %.1fps vs closed-page %.1fps", mean, closed)
	}
}

// TestSequentialStreamApproachesPortBandwidth: value streaming hits the
// open row for 127 of every 128 lines, so the flat model's
// "bytes / 6.25GB/s" stream time is justified too.
func TestSequentialStreamApproachesPortBandwidth(t *testing.T) {
	d, _ := NewBankedDRAM(10 * sim.Nanosecond)
	const size = 1 << 20
	total := d.StreamAccess(0, size)
	if hr := d.RowHitRate(); hr < 0.98 {
		t.Fatalf("sequential row-hit rate = %.3f, should be ~1", hr)
	}
	// Effective bandwidth must be within 2x of the port's rated 6.25GB/s
	// (tCAS pipelining is not modeled, so some overhead remains).
	bw := size / total.Seconds()
	if bw < DRAMPortBandwidth/2 {
		t.Fatalf("sequential bandwidth %.2f GB/s too far below port rate", bw/1e9)
	}
}

func TestBankedDRAMReset(t *testing.T) {
	d, _ := NewBankedDRAM(10 * sim.Nanosecond)
	d.Access(0)
	d.Reset()
	if d.accesses != 0 || d.RowHitRate() != 0 {
		t.Fatal("reset did not clear stats")
	}
	// After reset the first access is cold again.
	if d.Access(0) == d.tCAS+d.burstTime {
		t.Fatal("rows should be closed after reset")
	}
}
