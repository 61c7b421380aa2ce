package memmodel

import (
	"fmt"

	"kv3d/internal/sim"
)

// BankedDRAM is a bank- and row-buffer-accurate model of one port of
// the paper's 3D DRAM (§4.1.1): 8 banks behind the port, each bank a
// 64x64 matrix of subarrays sharing one row buffer over TSVs, 8 kb
// physical pages. It exists to *validate* the flat-latency device used
// by the request model: random metadata accesses should see close to
// the closed-page latency (row buffer rarely helps), while sequential
// value streams should approach the port's sustained bandwidth.
//
// Timing follows the classic decomposition: an access to the open row
// pays tCAS; a different row pays tRP (precharge) + tRCD (activate) +
// tCAS. The paper's "closed page latency of 11 cycles at 1GHz" is the
// full tRP+tRCD+tCAS path; its worst-case model charges that to every
// access.
type BankedDRAM struct {
	banks []int64 // open row per bank, -1 = closed

	tRP  sim.Duration
	tRCD sim.Duration
	tCAS sim.Duration

	rowBytes  int64
	burstTime sim.Duration // per-64B line transfer at port bandwidth

	// Stats.
	accesses uint64
	rowHits  uint64
}

// NewBankedDRAM builds one port's bank model from a closed-page latency
// (split 40/40/20 across tRP/tRCD/tCAS, the conventional proportions).
func NewBankedDRAM(closedPage sim.Duration) (*BankedDRAM, error) {
	if closedPage < sim.Nanosecond || closedPage > sim.Microsecond {
		return nil, fmt.Errorf("memmodel: closed-page latency %v outside [1ns, 1us]", closedPage)
	}
	banks := make([]int64, DRAMBanksPerPort)
	for i := range banks {
		banks[i] = -1
	}
	return &BankedDRAM{
		banks:     banks,
		tRP:       sim.Duration(float64(closedPage) * 0.4),
		tRCD:      sim.Duration(float64(closedPage) * 0.4),
		tCAS:      sim.Duration(float64(closedPage) * 0.2),
		rowBytes:  DRAMPageBytes,
		burstTime: sim.FromSeconds(float64(DRAMLineBytes) / DRAMPortBandwidth),
	}, nil
}

// Access performs one 64B line access at a byte address within the
// port's 256MB space and returns its latency.
func (d *BankedDRAM) Access(addr int64) sim.Duration {
	if addr < 0 {
		addr = -addr
	}
	d.accesses++
	row := addr / d.rowBytes
	bank := int(row) % len(d.banks)
	lat := d.tCAS + d.burstTime
	if d.banks[bank] == row {
		d.rowHits++
		return lat
	}
	if d.banks[bank] != -1 {
		lat += d.tRP // close the old row first
	}
	lat += d.tRCD
	d.banks[bank] = row
	return lat
}

// StreamAccess reads n contiguous bytes starting at addr, returning the
// total time (row activations amortize across the row's lines).
func (d *BankedDRAM) StreamAccess(addr, n int64) sim.Duration {
	var total sim.Duration
	for off := int64(0); off < n; off += DRAMLineBytes {
		total += d.Access(addr + off)
	}
	return total
}

// RowHitRate reports the measured fraction of accesses that hit an open
// row.
func (d *BankedDRAM) RowHitRate() float64 {
	if d.accesses == 0 {
		return 0
	}
	return float64(d.rowHits) / float64(d.accesses)
}

// ClosedPageLatency returns the full random-access path (tRP+tRCD+tCAS
// plus one burst), the figure the flat model charges every access.
func (d *BankedDRAM) ClosedPageLatency() sim.Duration {
	return d.tRP + d.tRCD + d.tCAS + d.burstTime
}

// Reset closes all rows and clears statistics.
func (d *BankedDRAM) Reset() {
	for i := range d.banks {
		d.banks[i] = -1
	}
	d.accesses, d.rowHits = 0, 0
}
