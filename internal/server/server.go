// Package server composes stacks into a 1.5U Mercury or Iridium server:
// it runs the stack simulation across the paper's request-size sweep,
// applies the power/area/port constraints from phys, and produces the
// rows of Table 3, Table 4 and Figures 7–8.
package server

import (
	"fmt"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/phys"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
)

// Design names one server configuration (e.g. "Mercury-8 on A7").
type Design struct {
	Name          string
	Core          cpu.Core
	Cache         cache.Hierarchy
	Mem           memmodel.Device
	CoresPerStack int
}

// Mercury builds the DRAM-based design at the default 10ns latency.
func Mercury(core cpu.Core, coresPerStack int) Design {
	return Design{
		Name:          fmt.Sprintf("Mercury-%d", coresPerStack),
		Core:          core,
		Cache:         cache.L2MB2(),
		Mem:           memmodel.MustDRAM3D(10 * sim.Nanosecond),
		CoresPerStack: coresPerStack,
	}
}

// Iridium builds the Flash-based design at 10µs reads / 200µs writes.
func Iridium(core cpu.Core, coresPerStack int) Design {
	return Design{
		Name:          fmt.Sprintf("Iridium-%d", coresPerStack),
		Core:          core,
		Cache:         cache.L2MB2(),
		Mem:           memmodel.MustFlash3D(10*sim.Microsecond, 200*sim.Microsecond),
		CoresPerStack: coresPerStack,
	}
}

// Evaluation is the measured server-level outcome of a Design.
type Evaluation struct {
	// Stacks is the number of stacks fitted, and LimitedBy the binding
	// constraint (power / area / ports).
	Stacks    int
	LimitedBy phys.Constraint

	// Cores is stacks x cores-per-stack.
	Cores int
	// DensityBytes is total storage capacity.
	DensityBytes int64
	// AreaCM2 is the consumed board area.
	AreaCM2 float64

	// MaxBWBytesPerSec is the highest payload bandwidth observed across
	// the 64B–1MB sweep; PowerMaxW is wall power at that operating point
	// (the Table 3 "Power" row).
	MaxBWBytesPerSec float64
	PowerMaxW        float64

	// TPS64B is server throughput on 64B GETs; Power64BW the wall power
	// at that point (the Table 4 figures); BW64BBytesPerSec its payload
	// bandwidth.
	TPS64B           float64
	Power64BW        float64
	BW64BBytesPerSec float64

	// MeanRTT64B is the per-request latency at 64B.
	MeanRTT64B sim.Duration
	// SubMsFraction64B is the fraction of 64B GETs under 1ms.
	SubMsFraction64B float64
}

// TPSPerWatt returns the Table 4 efficiency metric.
func (e Evaluation) TPSPerWatt() float64 {
	if e.Power64BW <= 0 {
		return 0
	}
	return e.TPS64B / e.Power64BW
}

// TPSPerGB returns the Table 4 accessibility metric.
func (e Evaluation) TPSPerGB() float64 {
	gb := float64(e.DensityBytes) / (1 << 30)
	if gb <= 0 {
		return 0
	}
	return e.TPS64B / gb
}

// sweepSizes is the request-size subset used to locate the bandwidth
// peak; the full 64B–1MB sweep belongs to Figures 5–6.
var sweepSizes = []int64{64, 4 << 10, 64 << 10, 1 << 20}

// requestsPerRun keeps evaluation cheap while averaging queueing noise.
const requestsPerRun = 30

// Evaluate measures one design end to end. Following the paper's
// methodology (§5.1, §5.3), per-core throughput is measured on a
// single-core stack running one memcached instance, then scaled
// linearly to the stack and server level. (Port sharing at n=32 is
// validated separately in the stackmodel tests and ablation benches;
// at 64B requests its effect is negligible. A shared 10GbE port would
// cap large-value payload bandwidth at 1.25 GB/s per stack — the paper's
// max-bandwidth row scales the per-core memory bandwidth instead, and we
// reproduce that accounting.)
func Evaluate(d Design) (Evaluation, error) {
	cfg := stackmodel.Config{
		Core:          d.Core,
		Cache:         d.Cache,
		Mem:           d.Mem,
		CoresPerStack: d.CoresPerStack,
	}
	if err := cfg.Validate(); err != nil {
		return Evaluation{}, err
	}
	oneCore := cfg
	oneCore.CoresPerStack = 1

	n := float64(d.CoresPerStack)
	var (
		maxBWPerStack float64
		bw64PerStack  float64
		tps64PerStack float64
		rtt64         sim.Duration
		subMs         float64
	)
	for _, size := range sweepSizes {
		st, err := stackmodel.NewStack(oneCore)
		if err != nil {
			return Evaluation{}, err
		}
		res, err := st.Measure(stackmodel.Get, size, requestsPerRun)
		if err != nil {
			return Evaluation{}, err
		}
		bw := res.TPSPerCore * float64(size) * n
		if bw > maxBWPerStack {
			maxBWPerStack = bw
		}
		if size == 64 {
			bw64PerStack = bw
			tps64PerStack = res.TPSPerCore * n
			rtt64 = res.MeanRTT
			subMs = res.Hist.FractionBelow(int64(sim.Millisecond))
		}
	}

	// Fit stacks under the max-bandwidth power draw (the conservative
	// provisioning the paper uses for Table 3).
	stackPowerMax := phys.StackPowerW(d.Core, d.CoresPerStack, d.Mem, maxBWPerStack)
	stacks, limit := phys.MaxStacks(stackPowerMax)

	s := float64(stacks)
	stackPower64 := phys.StackPowerW(d.Core, d.CoresPerStack, d.Mem, bw64PerStack)
	return Evaluation{
		Stacks:           stacks,
		LimitedBy:        limit,
		Cores:            stacks * d.CoresPerStack,
		DensityBytes:     int64(s) * d.Mem.CapacityBytes(),
		AreaCM2:          phys.ServerAreaCM2(stacks),
		MaxBWBytesPerSec: maxBWPerStack * s,
		PowerMaxW:        phys.ServerPowerW(stackPowerMax, stacks),
		TPS64B:           tps64PerStack * s,
		Power64BW:        phys.ServerPowerW(stackPower64, stacks),
		BW64BBytesPerSec: bw64PerStack * s,
		MeanRTT64B:       rtt64,
		SubMsFraction64B: subMs,
	}, nil
}

// CoreConfigs returns the three core configurations of Table 3, in the
// paper's column order.
func CoreConfigs() []cpu.Core {
	return []cpu.Core{
		cpu.MustCortexA15(1.5e9),
		cpu.MustCortexA15(1e9),
		cpu.CortexA7(),
	}
}

// CoreCounts returns the per-stack core counts of Table 3.
func CoreCounts() []int { return []int{1, 2, 4, 8, 16, 32} }
