package experiments

import (
	"fmt"

	"kv3d/internal/baseline"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/phys"
	"kv3d/internal/report"
	"kv3d/internal/server"
)

// Table1 reproduces the component power/area constants.
func Table1(Options) (Result, error) {
	t := &report.Table{
		Title:   "Table 1: Power and area for the components of a 3D stack",
		Columns: []string{"Component", "Power", "Area (mm^2)"},
	}
	for _, row := range phys.Table1() {
		power := fmt.Sprintf("%.0f mW", row.PowerW*1000)
		if row.PowerUnit != "W" {
			power = fmt.Sprintf("%.0f mW per GB/s", row.PowerW*1000)
		}
		t.AddRow(row.Component, power, fmt.Sprintf("%.2f", row.AreaMM2))
	}
	return Result{ID: "table1", Tables: []*report.Table{t}}, nil
}

// Table2 reproduces the memory technology comparison.
func Table2(Options) (Result, error) {
	t := &report.Table{
		Title:   "Table 2: Comparison of 3D-stacked DRAM to DIMM packages",
		Columns: []string{"DRAM", "BW (GB/s)", "Capacity", "3D"},
	}
	for _, tech := range memmodel.Table2() {
		stacked := ""
		if tech.Stacked {
			stacked = "yes"
		}
		t.AddRow(tech.Name, tech.BandwidthGBps, report.Bytes(tech.CapacityBytes), stacked)
	}
	return Result{ID: "table2", Tables: []*report.Table{t}}, nil
}

// table3Counts trims the sweep in quick mode.
func table3Counts(o Options) []int {
	if o.Quick {
		return []int{1, 8, 32}
	}
	return server.CoreCounts()
}

// Table3 reproduces the 1.5U maximum-configuration comparison: area,
// power, density and max bandwidth for every core type and count, for
// Mercury and Iridium.
func Table3(o Options) (Result, error) {
	var tables []*report.Table
	for _, core := range server.CoreConfigs() {
		t := &report.Table{
			Title: fmt.Sprintf("Table 3 (%s): 1.5U maximum configurations", core.Name()),
			Columns: []string{"Design", "Cores/stack", "Stacks", "Limit",
				"Area (cm^2)", "Power (W)", "Density (GB)", "Max BW (GB/s)"},
		}
		for _, n := range table3Counts(o) {
			for _, d := range []server.Design{server.Mercury(core, n), server.Iridium(core, n)} {
				e, err := server.Evaluate(d)
				if err != nil {
					return Result{}, err
				}
				t.AddRow(d.Name, n, e.Stacks, string(e.LimitedBy),
					fmt.Sprintf("%.0f", e.AreaCM2),
					fmt.Sprintf("%.0f", e.PowerMaxW),
					fmt.Sprintf("%.0f", float64(e.DensityBytes)/(1<<30)),
					fmt.Sprintf("%.0f", e.MaxBWBytesPerSec/1e9))
			}
		}
		tables = append(tables, t)
	}
	return Result{ID: "table3", Tables: tables}, nil
}

// Table4 reproduces the comparison of A7-based Mercury and Iridium
// against memcached 1.4/1.6/Bags on a Xeon server and the TSSP
// accelerator, plus the paper's headline improvement ratios.
func Table4(o Options) (Result, error) {
	t := &report.Table{
		Title: "Table 4: A7-based Mercury and Iridium vs prior art (64B GETs)",
		Columns: []string{"System", "Stacks", "Cores", "Memory (GB)", "Power (W)",
			"TPS (M)", "KTPS/W", "KTPS/GB", "BW (GB/s)"},
	}
	counts := []int{8, 16, 32}
	if o.Quick {
		counts = []int{32}
	}
	type row struct {
		name string
		eval server.Evaluation
	}
	var best *server.Evaluation
	var bestIridium *server.Evaluation
	add := func(r row) {
		e := r.eval
		t.AddRow(r.name, e.Stacks, e.Cores,
			fmt.Sprintf("%.0f", float64(e.DensityBytes)/(1<<30)),
			fmt.Sprintf("%.0f", e.Power64BW),
			fmt.Sprintf("%.2f", e.TPS64B/1e6),
			fmt.Sprintf("%.2f", e.TPSPerWatt()/1e3),
			fmt.Sprintf("%.2f", e.TPSPerGB()/1e3),
			fmt.Sprintf("%.2f", e.BW64BBytesPerSec/1e9))
	}
	a7 := cpu.CortexA7()
	for _, n := range counts {
		e, err := server.Evaluate(server.Mercury(a7, n))
		if err != nil {
			return Result{}, err
		}
		add(row{fmt.Sprintf("Mercury n=%d", n), e})
		if best == nil || e.TPS64B > best.TPS64B {
			cp := e
			best = &cp
		}
	}
	for _, n := range counts {
		e, err := server.Evaluate(server.Iridium(a7, n))
		if err != nil {
			return Result{}, err
		}
		add(row{fmt.Sprintf("Iridium n=%d", n), e})
		if bestIridium == nil || e.TPS64B > bestIridium.TPS64B {
			cp := e
			bestIridium = &cp
		}
	}
	var bags baseline.XeonServer
	for _, v := range []baseline.Version{baseline.V14, baseline.V16, baseline.Bags} {
		x := baseline.Reference(v)
		if v == baseline.Bags {
			bags = x
		}
		t.AddRow(x.Name(), 1, x.Threads,
			fmt.Sprintf("%.0f", float64(x.MemoryBytes())/(1<<30)),
			fmt.Sprintf("%.0f", x.PowerW()),
			fmt.Sprintf("%.2f", x.TPS64B()/1e6),
			fmt.Sprintf("%.2f", x.TPSPerWatt()/1e3),
			fmt.Sprintf("%.2f", x.TPSPerGB()/1e3),
			fmt.Sprintf("%.2f", x.BandwidthBytesPerSec()/1e9))
	}
	ts := baseline.TSSP{}
	t.AddRow(ts.Name(), 1, 1,
		fmt.Sprintf("%.0f", float64(ts.MemoryBytes())/(1<<30)),
		fmt.Sprintf("%.0f", ts.PowerW()),
		fmt.Sprintf("%.2f", ts.TPS64B()/1e6),
		fmt.Sprintf("%.2f", ts.TPSPerWatt()/1e3),
		fmt.Sprintf("%.2f", ts.TPSPerGB()/1e3), "0.02")

	// Headline ratios vs the optimized baseline (Bags).
	h := &report.Table{
		Title:   "Headline ratios vs optimized Memcached (Bags) — paper targets in parentheses",
		Columns: []string{"Metric", "Mercury (paper)", "Iridium (paper)"},
	}
	bagsGB := float64(bags.MemoryBytes()) / (1 << 30)
	h.AddRow("Density",
		fmt.Sprintf("%.1fx (2.9x)", float64(best.DensityBytes)/(1<<30)/bagsGB),
		fmt.Sprintf("%.1fx (14x)", float64(bestIridium.DensityBytes)/(1<<30)/bagsGB))
	h.AddRow("TPS",
		fmt.Sprintf("%.1fx (10x)", best.TPS64B/bags.TPS64B()),
		fmt.Sprintf("%.1fx (5.2x)", bestIridium.TPS64B/bags.TPS64B()))
	h.AddRow("TPS/Watt",
		fmt.Sprintf("%.1fx (4.9x)", best.TPSPerWatt()/bags.TPSPerWatt()),
		fmt.Sprintf("%.1fx (2.4x)", bestIridium.TPSPerWatt()/bags.TPSPerWatt()))
	h.AddRow("TPS/GB",
		fmt.Sprintf("%.1fx (3.5x)", best.TPSPerGB()/bags.TPSPerGB()),
		fmt.Sprintf("%.2fx (0.36x)", bestIridium.TPSPerGB()/bags.TPSPerGB()))

	return Result{ID: "table4", Tables: []*report.Table{t, h}}, nil
}
