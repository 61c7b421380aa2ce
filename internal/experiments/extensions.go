package experiments

// Extension studies beyond the paper's published tables and figures
// that check a number the paper states: thermal (below) sets the
// per-stack TDP beside §6.5's 6.2 W/stack and the passive-cooling limit,
// and dramsim (dramsim.go) holds the flat DRAM model against a
// bank-level one at Table 1's 6.25 GB/s per port and §5.2's closed-page
// charge.

import (
	"fmt"

	"kv3d/internal/phys"
	"kv3d/internal/report"
	"kv3d/internal/server"
)

func init() {
	registry["thermal"] = Thermal
}

// Thermal reproduces the §6.5 cooling argument: per-stack TDP across
// configurations, checked against the passive-cooling envelope.
func Thermal(o Options) (Result, error) {
	t := &report.Table{
		Title: "Cooling (§6.5): per-stack TDP under passive cooling",
		Columns: []string{"Design", "Core", "Stack TDP (W)", "Junction (C)",
			"Passive OK", "Server TDP (W)", "Airflow OK"},
		Note: fmt.Sprintf("passive limit %.0fW/package, Tj max %.0fC at %.0fC ambient",
			phys.PassiveCoolingLimitW, phys.JunctionMaxC, phys.AmbientC),
	}
	for _, core := range server.CoreConfigs() {
		for _, n := range table3Counts(o) {
			for _, d := range []server.Design{server.Mercury(core, n), server.Iridium(core, n)} {
				e, err := server.Evaluate(d)
				if err != nil {
					return Result{}, err
				}
				perStackBW := 0.0
				if e.Stacks > 0 {
					perStackBW = e.MaxBWBytesPerSec / float64(e.Stacks)
				}
				r := phys.Thermal(core, n, d.Mem, perStackBW, e.Stacks)
				t.AddRow(d.Name, core.Name(),
					fmt.Sprintf("%.2f", r.StackTDPW),
					fmt.Sprintf("%.0f", r.JunctionC),
					yesNo(r.PassiveOK),
					fmt.Sprintf("%.0f", r.ServerTDPW),
					yesNo(r.AirflowOK))
			}
		}
	}
	return Result{ID: "thermal", Tables: []*report.Table{t}}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
