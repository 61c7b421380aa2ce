// Package cpu provides the core timing models used by the Mercury and
// Iridium stack simulations: ARM Cortex-A7 (in-order) and Cortex-A15
// (out-of-order).
//
// The model is request-level, matching the paper's methodology: a
// request executes instruction blocks whose time is instructions /
// effective-IPC / frequency, plus memory stall time divided by the
// core's memory-level parallelism (OoO cores overlap misses, in-order
// cores mostly cannot). Effective IPC values reflect scale-out-workload
// behaviour (low ILP, high icache pressure — Ferdman et al.), not peak
// issue width; they are calibrated so that the paper's reported ratios
// hold (A15 ≈ 3× A7 with an L2 at small requests, 1–2× without).
package cpu

import (
	"fmt"

	"kv3d/internal/sim"
)

// Kind enumerates the modeled core types.
type Kind int

const (
	KindA7 Kind = iota
	KindA15
)

func (k Kind) String() string {
	switch k {
	case KindA7:
		return "Cortex-A7"
	case KindA15:
		return "Cortex-A15"
	default:
		return "unknown-core"
	}
}

// Core is an immutable description of one CPU core.
type Core struct {
	Kind Kind
	// FreqHz is the clock frequency.
	FreqHz float64
	// IPC is the effective instructions-per-cycle on memcached-like
	// code (network stack dominated, low ILP).
	IPC float64
	// MLP is the memory-level parallelism: how many outstanding misses
	// the core overlaps. Stall time divides by this.
	MLP float64
	// StreamBytesPerSec is the effective per-core rate for bulk data
	// movement through the kernel network path (copy + checksum),
	// largely memory-bound and therefore only weakly frequency-scaled.
	StreamBytesPerSec float64
	// PowerW is the Table 1 figure.
	PowerW float64
}

// Table 1 power/area constants from the paper.
const (
	a7PowerW     = 0.100 // A7 @1GHz
	a15PowerW1G  = 0.600 // A15 @1GHz
	a15PowerW15G = 1.000 // A15 @1.5GHz
)

// CortexA7 returns the 1GHz in-order A7 model used by Mercury/Iridium.
func CortexA7() Core {
	return Core{
		Kind:              KindA7,
		FreqHz:            1e9,
		IPC:               0.40,
		MLP:               1.0,
		StreamBytesPerSec: 240e6,
		PowerW:            a7PowerW,
	}
}

// CortexA15 returns the out-of-order A15 model at 1.0 or 1.5 GHz.
// Other frequencies are rejected: the paper (and the Table 1 power
// numbers) only covers these two operating points.
func CortexA15(freqHz float64) (Core, error) {
	c := Core{
		Kind:              KindA15,
		IPC:               1.15,
		MLP:               2.0,
		StreamBytesPerSec: 360e6,
	}
	switch freqHz {
	case 1e9:
		c.FreqHz = 1e9
		c.PowerW = a15PowerW1G
	case 1.5e9:
		c.FreqHz = 1.5e9
		c.PowerW = a15PowerW15G
		c.StreamBytesPerSec = 400e6 // modest gain: the path is memory-bound
	default:
		return Core{}, fmt.Errorf("cpu: A15 supports 1GHz or 1.5GHz, got %.2gHz", freqHz)
	}
	return c, nil
}

// MustCortexA15 panics on an unsupported frequency; for tables where the
// frequency is a literal.
func MustCortexA15(freqHz float64) Core {
	c, err := CortexA15(freqHz)
	if err != nil {
		panic(err)
	}
	return c
}

// Name renders e.g. "Cortex-A15 @1.5GHz".
func (c Core) Name() string {
	return fmt.Sprintf("%s @%.3gGHz", c.Kind, c.FreqHz/1e9)
}

// CyclePeriod returns the duration of one clock cycle.
func (c Core) CyclePeriod() sim.Duration {
	return sim.FromSeconds(1 / c.FreqHz)
}

// CycleTime converts a (possibly fractional) cycle count on this core
// into time, going through the typed sim.CyclesToPs seam so the
// cycles→picoseconds crossing is explicit.
func (c Core) CycleTime(cycles float64) sim.Duration {
	return sim.CyclesToPs(cycles, c.CyclePeriod()).Duration()
}

// ComputeTime returns the time to execute the given instruction count at
// the core's effective IPC.
func (c Core) ComputeTime(instructions float64) sim.Duration {
	if instructions <= 0 {
		return 0
	}
	return sim.FromSeconds(instructions / c.IPC / c.FreqHz)
}

// MLPWindow is the longest single-miss latency an out-of-order window
// can still overlap with other misses; beyond it (Flash-class latencies)
// the ROB fills and the core serializes, so MLP degrades to 1.
const MLPWindow = 500 * sim.Nanosecond

// EffectiveMLP returns the usable memory-level parallelism for misses of
// the given latency.
func (c Core) EffectiveMLP(missLatency sim.Duration) float64 {
	mlp := c.MLP
	if mlp < 1 {
		mlp = 1
	}
	if missLatency > MLPWindow {
		return 1
	}
	return mlp
}

// StallTimeAt converts an aggregate miss-latency sum into core stall
// time, applying the core's memory-level parallelism for misses of the
// given individual latency, so Flash-class misses are not overlapped.
func (c Core) StallTimeAt(totalMissLatency, perMiss sim.Duration) sim.Duration {
	if totalMissLatency <= 0 {
		return 0
	}
	return sim.FromSeconds(totalMissLatency.Seconds() / c.EffectiveMLP(perMiss))
}

// StreamTime returns the time to move n bytes through the core's bulk
// data path.
func (c Core) StreamTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.FromSeconds(float64(bytes) / c.StreamBytesPerSec)
}
