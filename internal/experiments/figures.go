package experiments

import (
	"fmt"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/report"
	"kv3d/internal/server"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
	"kv3d/internal/workload"
)

func sweepSizes(o Options) []int64 {
	if o.Quick {
		return []int64{64, 4 << 10, 1 << 20}
	}
	return workload.SizeSweep()
}

func requestCount(o Options) int {
	if o.Quick {
		return 10
	}
	return 50
}

func sizeLabel(s int64) string {
	switch {
	case s >= 1<<20:
		return fmt.Sprintf("%dM", s>>20)
	case s >= 1<<10:
		return fmt.Sprintf("%dK", s>>10)
	default:
		return fmt.Sprintf("%d", s)
	}
}

// Figure4 reproduces the GET/PUT execution-time breakdown (hash /
// memcached / network stack) across request sizes on an A15@1GHz with a
// 2MB L2 and 10ns DRAM (§6.1).
func Figure4(o Options) (Result, error) {
	cfg := stackmodel.Config{
		Core:          cpu.MustCortexA15(1e9),
		Cache:         cache.L2MB2(),
		Mem:           memmodel.MustDRAM3D(10 * sim.Nanosecond),
		CoresPerStack: 1,
	}
	st, err := stackmodel.NewStack(cfg)
	if err != nil {
		return Result{}, err
	}
	var tables []*report.Table
	for _, op := range []stackmodel.Op{stackmodel.Get, stackmodel.Put} {
		t := &report.Table{
			Title:   fmt.Sprintf("Figure 4: %s execution time breakdown (A15@1GHz, 2MB L2, 10ns DRAM)", op),
			Columns: []string{"Size", "Hash %", "Memcached %", "Network stack %"},
		}
		for _, size := range sweepSizes(o) {
			b := st.PhaseBreakdown(op, size)
			t.AddRow(sizeLabel(size),
				fmt.Sprintf("%.1f", b.Hash*100),
				fmt.Sprintf("%.1f", b.Memcache*100),
				fmt.Sprintf("%.1f", b.NetStack*100))
		}
		tables = append(tables, t)
	}
	return Result{ID: "fig4", Tables: tables}, nil
}

// coreCacheConfigs are the four panels of Figures 5 and 6.
type coreCache struct {
	name  string
	core  cpu.Core
	cache cache.Hierarchy
}

func figurePanels() []coreCache {
	return []coreCache{
		{"A15 @1GHz with 2MB L2", cpu.MustCortexA15(1e9), cache.L2MB2()},
		{"A15 @1GHz with no L2", cpu.MustCortexA15(1e9), cache.None()},
		{"A7 with 2MB L2", cpu.CortexA7(), cache.L2MB2()},
		{"A7 with no L2", cpu.CortexA7(), cache.None()},
	}
}

// latencySweep runs one Figure 5/6 panel: TPS for GET and PUT across
// request sizes for each memory latency.
func latencySweep(o Options, panel coreCache, mems []memmodel.Device, memLabel func(memmodel.Device) string, figure string) (*report.Table, error) {
	cols := []string{"Size"}
	for _, m := range mems {
		cols = append(cols, memLabel(m)+" GET", memLabel(m)+" PUT")
	}
	t := &report.Table{
		Title:   fmt.Sprintf("%s: TPS for %s", figure, panel.name),
		Columns: cols,
	}
	for _, size := range sweepSizes(o) {
		row := []any{sizeLabel(size)}
		for _, m := range mems {
			for _, op := range []stackmodel.Op{stackmodel.Get, stackmodel.Put} {
				st, err := stackmodel.NewStack(stackmodel.Config{
					Core: panel.core, Cache: panel.cache, Mem: m, CoresPerStack: 1,
				})
				if err != nil {
					return nil, err
				}
				res, err := st.Measure(op, size, requestCount(o))
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.0f", res.TPSPerCore))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure5 reproduces the Mercury-1 DRAM-latency sensitivity sweep.
func Figure5(o Options) (Result, error) {
	latencies := []sim.Duration{10 * sim.Nanosecond, 30 * sim.Nanosecond, 50 * sim.Nanosecond, 100 * sim.Nanosecond}
	if o.Quick {
		latencies = []sim.Duration{10 * sim.Nanosecond, 100 * sim.Nanosecond}
	}
	var mems []memmodel.Device
	for _, l := range latencies {
		mems = append(mems, memmodel.MustDRAM3D(l))
	}
	label := func(m memmodel.Device) string {
		return m.ReadLatency().String()
	}
	var tables []*report.Table
	for _, panel := range figurePanels() {
		t, err := latencySweep(o, panel, mems, label, "Figure 5 (Mercury-1)")
		if err != nil {
			return Result{}, err
		}
		tables = append(tables, t)
	}
	return Result{ID: "fig5", Tables: tables}, nil
}

// Figure6 reproduces the Iridium-1 Flash-latency sensitivity sweep.
func Figure6(o Options) (Result, error) {
	reads := []sim.Duration{10 * sim.Microsecond, 20 * sim.Microsecond}
	var mems []memmodel.Device
	for _, l := range reads {
		mems = append(mems, memmodel.MustFlash3D(l, 200*sim.Microsecond))
	}
	label := func(m memmodel.Device) string {
		return m.ReadLatency().String()
	}
	var tables []*report.Table
	for _, panel := range figurePanels() {
		t, err := latencySweep(o, panel, mems, label, "Figure 6 (Iridium-1)")
		if err != nil {
			return Result{}, err
		}
		tables = append(tables, t)
	}
	return Result{ID: "fig6", Tables: tables}, nil
}

// densityThroughput is shared by Figures 7 and 8.
func densityThroughput(o Options, title string, mk func(cpu.Core, int) server.Design) (*report.Table, error) {
	t := &report.Table{
		Title: title,
		Columns: []string{"Config", "Core", "Density (GB)", "Power (W)",
			"TPS @64B (M)"},
	}
	for _, core := range server.CoreConfigs() {
		for _, n := range table3Counts(o) {
			d := mk(core, n)
			e, err := server.Evaluate(d)
			if err != nil {
				return nil, err
			}
			t.AddRow(d.Name, core.Name(),
				fmt.Sprintf("%.0f", float64(e.DensityBytes)/(1<<30)),
				fmt.Sprintf("%.0f", e.Power64BW),
				fmt.Sprintf("%.2f", e.TPS64B/1e6))
		}
	}
	return t, nil
}

// Figure7 reproduces density vs throughput for Mercury and Iridium.
func Figure7(o Options) (Result, error) {
	ma, err := densityThroughput(o, "Figure 7a: Mercury density vs TPS (64B GETs)", server.Mercury)
	if err != nil {
		return Result{}, err
	}
	ib, err := densityThroughput(o, "Figure 7b: Iridium density vs TPS (64B GETs)", server.Iridium)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "fig7", Tables: []*report.Table{ma, ib}}, nil
}

// Figure8 reproduces power vs throughput for Mercury and Iridium.
func Figure8(o Options) (Result, error) {
	ma, err := densityThroughput(o, "Figure 8a: Mercury power vs TPS (64B GETs)", server.Mercury)
	if err != nil {
		return Result{}, err
	}
	ib, err := densityThroughput(o, "Figure 8b: Iridium power vs TPS (64B GETs)", server.Iridium)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "fig8", Tables: []*report.Table{ma, ib}}, nil
}
