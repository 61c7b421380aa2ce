package experiments

import (
	"fmt"
	"os"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/obs"
	"kv3d/internal/report"
	"kv3d/internal/serversim"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
)

func init() {
	registry["loadlatency"] = LoadLatency
}

// LoadLatency extends the paper's evaluation with the open-loop view:
// the paper's TPS numbers are closed-loop linear scalings (capacity),
// but a production SLA is about latency under load. This experiment
// offers rising Poisson load to a simulated 1.5U box and reports the
// latency hockey stick — how much of the nominal capacity is usable
// within the sub-millisecond SLA, under uniform and Zipf-skewed keys.
func LoadLatency(o Options) (Result, error) {
	// A scaled-down box keeps the event count tractable (~37M TPS at
	// full scale would mean tens of millions of simulated arrivals);
	// queueing behaviour depends on utilization, not absolute size.
	stacks, cores := 24, 16
	duration := 60 * sim.Millisecond
	if o.Quick {
		stacks, cores = 8, 8
		duration = 20 * sim.Millisecond
	}
	base := serversim.Config{
		Stack: stackmodel.Config{
			Core:          cpu.CortexA7(),
			Cache:         cache.L2MB2(),
			Mem:           memmodel.MustDRAM3D(10 * sim.Nanosecond),
			CoresPerStack: cores,
		},
		Stacks:     stacks,
		Op:         stackmodel.Get,
		ValueBytes: 64,
		Duration:   duration,
		Keys:       50_000,
		Seed:       23,
	}
	nominal, err := serversim.NominalTPS(base)
	if err != nil {
		return Result{}, err
	}

	var tables []*report.Table
	for _, skew := range []float64{0, 0.99} {
		label := "uniform keys"
		if skew > 0 {
			label = fmt.Sprintf("zipf %.2f keys", skew)
		}
		t := &report.Table{
			Title: fmt.Sprintf("Open-loop Mercury-%d x%d stacks, 64B GETs, %s (nominal %.1fM TPS)",
				cores, stacks, label, nominal/1e6),
			Columns: []string{"Offered %", "Completed (M/s)", "p50", "p99", "<1ms %", "Hottest util"},
		}
		for _, frac := range []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.05} {
			cfg := base
			cfg.ZipfSkew = skew
			cfg.OfferedTPS = nominal * frac
			// Record the representative loaded-but-stable point (85%
			// offered, uniform keys) when tracing was requested.
			var tr *obs.FlightRecorder[sim.Time]
			if o.TracePath != "" && skew == 0 && frac == 0.85 {
				tr = obs.NewFlightRecorder[sim.Time]("kv3d", 0)
				cfg.Trace = tr
			}
			r, err := serversim.Run(cfg)
			if err != nil {
				return Result{}, err
			}
			if tr != nil {
				if err := writeTrace(o.TracePath, tr); err != nil {
					return Result{}, err
				}
			}
			t.AddRow(fmt.Sprintf("%.0f", frac*100),
				fmt.Sprintf("%.2f", r.CompletedTPS/1e6),
				sim.Duration(r.Latency.P50).String(),
				sim.Duration(r.Latency.P99).String(),
				fmt.Sprintf("%.1f", r.SubMsFraction*100),
				fmt.Sprintf("%.2f", r.HottestUtilization))
		}
		tables = append(tables, t)
	}
	return Result{ID: "loadlatency", Tables: tables}, nil
}

// writeTrace dumps a recorded run to path as trace-event JSON.
func writeTrace(path string, tr *obs.FlightRecorder[sim.Time]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
