package memmodel

import (
	"testing"

	"kv3d/internal/sim"
)

func TestDRAMConstruction(t *testing.T) {
	d, err := NewDRAM3D(10 * sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindDRAM {
		t.Fatal("kind")
	}
	if d.ReadLatency() != 10*sim.Nanosecond || d.WriteLatency() != 10*sim.Nanosecond {
		t.Fatal("latency")
	}
	if d.CapacityBytes() != 4<<30 {
		t.Fatalf("capacity = %d", d.CapacityBytes())
	}
	if d.Ports() != 16 {
		t.Fatalf("ports = %d", d.Ports())
	}
	if _, err := NewDRAM3D(0); err == nil {
		t.Fatal("zero latency should be rejected")
	}
	if _, err := NewDRAM3D(2 * sim.Microsecond); err == nil {
		t.Fatal("huge latency should be rejected")
	}
}

func TestDRAMStreamTime(t *testing.T) {
	d := MustDRAM3D(10 * sim.Nanosecond)
	// 6.25 GB/s port: 6.25 bytes per ns. 625 bytes = 100ns + 10ns open.
	got := d.StreamTime(625)
	want := 110 * sim.Nanosecond
	if got < want-sim.Nanosecond || got > want+sim.Nanosecond {
		t.Fatalf("StreamTime(625) = %v, want ~%v", got, want)
	}
	if d.StreamTime(0) != 0 {
		t.Fatal("zero bytes should take no time")
	}
}

func TestFlashConstruction(t *testing.T) {
	f, err := NewFlash3D(10*sim.Microsecond, 200*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != KindFlash {
		t.Fatal("kind")
	}
	if f.CapacityBytes() != 198*(1<<30)/10 {
		t.Fatalf("capacity = %d", f.CapacityBytes())
	}
	if _, err := NewFlash3D(100*sim.Nanosecond, 200*sim.Microsecond); err == nil {
		t.Fatal("sub-microsecond read latency should be rejected")
	}
	if _, err := NewFlash3D(20*sim.Microsecond, 10*sim.Microsecond); err == nil {
		t.Fatal("write faster than read should be rejected")
	}
}

func TestFlashStreamTimePages(t *testing.T) {
	f := MustFlash3D(10*sim.Microsecond, 200*sim.Microsecond)
	// Small reads: one page sense plus a tiny channel transfer.
	got := f.StreamTime(1)
	if got < 10*sim.Microsecond || got > 11*sim.Microsecond {
		t.Fatalf("1 byte = %v, want ~one page sense", got)
	}
	// Page boundary: crossing 4096 adds a second sense.
	if f.StreamTime(4097) < f.StreamTime(4096)+9*sim.Microsecond {
		t.Fatalf("crossing a page boundary must add a sense: %v vs %v",
			f.StreamTime(4096), f.StreamTime(4097))
	}
	// Bulk reads are channel-bound: 1MB at 15MB/s ≈ 70ms plus senses.
	bulk := f.StreamTime(1 << 20)
	wantXfer := sim.FromSeconds(float64(1<<20) / FlashChannelBytesPerSec)
	wantSense := 256 * 10 * sim.Microsecond
	if bulk != wantXfer+wantSense {
		t.Fatalf("1MB = %v, want %v", bulk, wantXfer+wantSense)
	}
	if f.StreamTime(0) != 0 {
		t.Fatal("zero bytes should take no time")
	}
}

func TestPagesFor(t *testing.T) {
	for in, want := range map[int64]int64{0: 0, 1: 1, 4096: 1, 4097: 2, 1 << 20: 256} {
		if got := PagesFor(in); got != want {
			t.Errorf("PagesFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestDensityRatioFlashVsDRAM(t *testing.T) {
	// The paper's §4.2.1: ~4.9x density increase for Iridium stacks.
	ratio := float64(FlashCapacityBytes) / float64(DRAMCapacityBytes)
	if ratio < 4.8 || ratio > 5.0 {
		t.Fatalf("flash/DRAM density ratio = %.2f, want ~4.95", ratio)
	}
}

func TestTable2Catalog(t *testing.T) {
	rows := Table2()
	if len(rows) != 7 {
		t.Fatalf("Table 2 has %d rows, want 7", len(rows))
	}
	var future Technology
	for _, r := range rows {
		if r.BandwidthGBps <= 0 || r.CapacityBytes <= 0 {
			t.Errorf("row %q has non-positive figures", r.Name)
		}
		if r.Name == "Future Tezzaron (3D-stack)" {
			future = r
		}
	}
	if future.BandwidthGBps != 100 || future.CapacityBytes != 4<<30 || !future.Stacked {
		t.Fatalf("future Tezzaron row wrong: %+v", future)
	}
}
