// Package memmodel provides the memory-device models under a Mercury or
// Iridium stack: the Tezzaron-style 8-layer 3D DRAM (16 independent
// 128-bit ports, closed-page access), its bank- and row-buffer-level
// counterpart that the dramsim experiment checks the flat model
// against, the 16-layer p-BiCS NAND Flash, and the Table 2 catalog of
// contemporary memory technologies for comparison.
package memmodel

import (
	"fmt"

	"kv3d/internal/sim"
)

// Kind distinguishes the storage technology of a stack.
type Kind int

const (
	KindDRAM Kind = iota
	KindFlash
)

func (k Kind) String() string {
	switch k {
	case KindDRAM:
		return "3D DRAM"
	case KindFlash:
		return "3D NAND Flash"
	default:
		return "unknown-memory"
	}
}

// Device is the interface the stack model uses for timing and power.
type Device interface {
	// Kind reports DRAM or Flash.
	Kind() Kind
	// ReadLatency is the cost of one random read (closed-page access
	// for DRAM, one page read for Flash).
	ReadLatency() sim.Duration
	// WriteLatency is the cost of one random write (row write for
	// DRAM, page program for Flash).
	WriteLatency() sim.Duration
	// StreamTime is the port-side time to move n contiguous bytes.
	StreamTime(bytes int64) sim.Duration
	// CapacityBytes is the stack's storage capacity.
	CapacityBytes() int64
	// Ports is the number of independent access ports (address spaces).
	Ports() int
	// ActiveWPerGBps is the Table 1 bandwidth-proportional power slope.
	ActiveWPerGBps() float64
	// BackgroundW is the idle/refresh floor per stack.
	BackgroundW() float64
	// Name is a human label for reports.
	Name() string
}

// 3D DRAM constants from the paper (§4.1.1, Tables 1–2).
const (
	DRAMPorts          = 16
	DRAMPortBandwidth  = 6.25e9 // bytes/s per port; 100 GB/s aggregate
	DRAMCapacityBytes  = 4 << 30
	DRAMBanksPerPort   = 8
	DRAMPageBytes      = 8 << 10 // 8kb page per paper's floorplan discussion
	DRAMActiveWPerGBps = 0.210
	DRAMBackgroundW    = 0.21 // refresh/standby floor; see DESIGN.md §5
	DRAMLineBytes      = 64
)

// DRAM3D models the stacked DRAM of a Mercury stack.
type DRAM3D struct {
	latency sim.Duration
}

// NewDRAM3D builds the device with a closed-page access latency; the
// paper sweeps 10–100ns. The 11-cycle @1GHz figure of §4.1.3 is the
// 10ns operating point.
func NewDRAM3D(latency sim.Duration) (*DRAM3D, error) {
	if latency < sim.Nanosecond || latency > sim.Microsecond {
		return nil, fmt.Errorf("memmodel: DRAM latency %v outside sane range [1ns, 1us]", latency)
	}
	return &DRAM3D{latency: latency}, nil
}

// MustDRAM3D panics on invalid latency (for table literals).
func MustDRAM3D(latency sim.Duration) *DRAM3D {
	d, err := NewDRAM3D(latency)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *DRAM3D) Kind() Kind { return KindDRAM }

// ReadLatency is the closed-page access latency, which the paper charges
// to every access as a worst case (§5.2).
func (d *DRAM3D) ReadLatency() sim.Duration  { return d.latency }
func (d *DRAM3D) WriteLatency() sim.Duration { return d.latency }
func (d *DRAM3D) CapacityBytes() int64       { return DRAMCapacityBytes }
func (d *DRAM3D) Ports() int                 { return DRAMPorts }
func (d *DRAM3D) ActiveWPerGBps() float64    { return DRAMActiveWPerGBps }
func (d *DRAM3D) BackgroundW() float64       { return DRAMBackgroundW }
func (d *DRAM3D) Name() string               { return fmt.Sprintf("3D DRAM (%v)", d.latency) }

// StreamTime moves bytes at the port's sustained bandwidth plus one
// access latency to open the first page.
func (d *DRAM3D) StreamTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	xfer := sim.FromSeconds(float64(bytes) / DRAMPortBandwidth)
	return d.latency + xfer
}

// Flash constants (Toshiba p-BiCS §4.2.1; latencies from Grupp et al.).
const (
	FlashPorts = 16
	// FlashCapacityBytes is 19.8 GiB expressed in integer arithmetic.
	FlashCapacityBytes  int64 = 198 * (1 << 30) / 10
	FlashPageBytes            = 4 << 10
	FlashPagesPerBlock        = 64
	FlashActiveWPerGBps       = 0.006
	FlashBackgroundW          = 0.05
	FlashEraseLatency         = 2 * sim.Millisecond
	// FlashChannelBytesPerSec is the effective sustained per-port data
	// rate for bulk page transfers (sense is pipelined with transfer
	// only across pages, not within one). This is deliberately low —
	// a first-generation p-BiCS part behind a simple controller — and
	// is calibrated so the Iridium max-bandwidth row of Table 3
	// reproduces (≈14 MB/s per core at 1MB values; see EXPERIMENTS.md).
	FlashChannelBytesPerSec = 15e6
)

// Flash3D models the p-BiCS NAND of an Iridium stack.
type Flash3D struct {
	readLat  sim.Duration
	writeLat sim.Duration
}

// NewFlash3D builds the device; the paper sweeps reads 10–20µs with
// writes at 200µs.
func NewFlash3D(readLat, writeLat sim.Duration) (*Flash3D, error) {
	if readLat < sim.Microsecond || readLat > sim.Millisecond {
		return nil, fmt.Errorf("memmodel: flash read latency %v outside [1us, 1ms]", readLat)
	}
	if writeLat < readLat {
		return nil, fmt.Errorf("memmodel: flash write latency %v below read latency %v", writeLat, readLat)
	}
	return &Flash3D{readLat: readLat, writeLat: writeLat}, nil
}

// MustFlash3D panics on invalid latencies (for table literals).
func MustFlash3D(readLat, writeLat sim.Duration) *Flash3D {
	f, err := NewFlash3D(readLat, writeLat)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Flash3D) Kind() Kind                 { return KindFlash }
func (f *Flash3D) ReadLatency() sim.Duration  { return f.readLat }
func (f *Flash3D) WriteLatency() sim.Duration { return f.writeLat }
func (f *Flash3D) CapacityBytes() int64       { return FlashCapacityBytes }
func (f *Flash3D) Ports() int                 { return FlashPorts }
func (f *Flash3D) ActiveWPerGBps() float64    { return FlashActiveWPerGBps }
func (f *Flash3D) BackgroundW() float64       { return FlashBackgroundW }
func (f *Flash3D) Name() string               { return fmt.Sprintf("3D NAND (read %v)", f.readLat) }

// StreamTime reads ceil(bytes/page) pages serially through one port's
// controller: each page pays the array sense latency, and the requested
// bytes cross the channel at the sustained transfer rate (partial-page
// reads only transfer the needed sectors).
func (f *Flash3D) StreamTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	pages := (bytes + FlashPageBytes - 1) / FlashPageBytes
	sense := f.readLat * sim.Duration(pages)
	xfer := sim.FromSeconds(float64(bytes) / FlashChannelBytesPerSec)
	return sense + xfer
}

// PagesFor returns the page count covering n bytes.
func PagesFor(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + FlashPageBytes - 1) / FlashPageBytes
}
