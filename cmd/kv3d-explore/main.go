// Command kv3d-explore evaluates a single Mercury/Iridium design point
// and prints the full server-level outcome — the interactive face of the
// design-space exploration behind Table 3.
//
//	kv3d-explore -core a7 -cores 32 -mem dram
//	kv3d-explore -core a15-1.5 -cores 8 -mem flash -dram-ns 50
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/obs"
	"kv3d/internal/report"
	"kv3d/internal/server"
	"kv3d/internal/serversim"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
)

func main() {
	coreName := flag.String("core", "a7", "core: a7, a15-1.0, a15-1.5")
	coresPer := flag.Int("cores", 32, "cores per stack (1..32)")
	mem := flag.String("mem", "dram", "memory: dram (Mercury) or flash (Iridium)")
	dramNS := flag.Int("dram-ns", 10, "DRAM closed-page latency in ns")
	flashUS := flag.Int("flash-us", 10, "Flash read latency in us")
	jsonOut := flag.Bool("json", false, "emit the evaluation and event-level counters as JSON probes instead of a table")
	tracePath := flag.String("trace", "", "record the event-level validation run as Chrome trace-event JSON at this path")
	simStacks := flag.Int("sim-stacks", 8, "stacks in the scaled-down event-level validation run (-json/-trace)")
	simLoad := flag.Float64("sim-load", 0.85, "offered load as a fraction of nominal TPS in the validation run")
	simFor := flag.Duration("sim-duration", 20*time.Millisecond, "simulated time span of the validation run")
	seed := flag.Uint64("seed", 42, "validation run arrival/key seed")
	flag.Parse()

	var core cpu.Core
	switch *coreName {
	case "a7":
		core = cpu.CortexA7()
	case "a15-1.0", "a15":
		core = cpu.MustCortexA15(1e9)
	case "a15-1.5":
		core = cpu.MustCortexA15(1.5e9)
	default:
		log.Fatalf("kv3d-explore: unknown core %q", *coreName)
	}

	var d server.Design
	switch *mem {
	case "dram":
		d = server.Mercury(core, *coresPer)
		dev, err := memmodel.NewDRAM3D(sim.Duration(*dramNS) * sim.Nanosecond)
		if err != nil {
			log.Fatalf("kv3d-explore: %v", err)
		}
		d.Mem = dev
	case "flash":
		d = server.Iridium(core, *coresPer)
		dev, err := memmodel.NewFlash3D(sim.Duration(*flashUS)*sim.Microsecond, 200*sim.Microsecond)
		if err != nil {
			log.Fatalf("kv3d-explore: %v", err)
		}
		d.Mem = dev
	default:
		log.Fatalf("kv3d-explore: unknown memory %q", *mem)
	}

	e, err := server.Evaluate(d)
	if err != nil {
		log.Fatalf("kv3d-explore: %v", err)
	}

	t := &report.Table{
		Title:   fmt.Sprintf("%s on %s with %s", d.Name, core.Name(), d.Mem.Name()),
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("Stacks", fmt.Sprintf("%d (limited by %s)", e.Stacks, e.LimitedBy))
	t.AddRow("Cores", e.Cores)
	t.AddRow("Density", report.Bytes(e.DensityBytes))
	t.AddRow("Board area", fmt.Sprintf("%.0f cm^2", e.AreaCM2))
	t.AddRow("Power @max BW", fmt.Sprintf("%.0f W", e.PowerMaxW))
	t.AddRow("Power @64B GETs", fmt.Sprintf("%.0f W", e.Power64BW))
	t.AddRow("Max memory BW", fmt.Sprintf("%.1f GB/s", e.MaxBWBytesPerSec/1e9))
	t.AddRow("TPS @64B", report.SI(e.TPS64B))
	t.AddRow("TPS/Watt", report.SI(e.TPSPerWatt()))
	t.AddRow("TPS/GB", report.SI(e.TPSPerGB()))
	t.AddRow("Mean RTT @64B", e.MeanRTT64B.String())
	t.AddRow("Requests <1ms", fmt.Sprintf("%.1f%%", e.SubMsFraction64B*100))

	// -json and -trace both need the event-level run: a scaled-down
	// open-loop serversim at the design point, instrumented with the
	// same probe registry the metrics endpoint naming scheme maps onto.
	var probes []obs.Probe
	if *jsonOut || *tracePath != "" {
		reg := obs.NewRegistry()
		var tr *obs.FlightRecorder[sim.Time]
		if *tracePath != "" {
			tr = obs.NewFlightRecorder[sim.Time]("kv3d", 0)
		}
		cfg := serversim.Config{
			Stack:      stackCfg(d),
			Stacks:     *simStacks,
			Op:         stackmodel.Get,
			ValueBytes: 64,
			Duration:   sim.Duration(simFor.Nanoseconds()) * sim.Nanosecond,
			Seed:       *seed,
			Trace:      tr,
			Probes:     reg,
		}
		nominal, err := serversim.NominalTPS(cfg)
		if err != nil {
			log.Fatalf("kv3d-explore: %v", err)
		}
		cfg.OfferedTPS = nominal * *simLoad
		if _, err := serversim.Run(cfg); err != nil {
			log.Fatalf("kv3d-explore: %v", err)
		}
		if tr != nil {
			f, err := os.Create(*tracePath)
			if err != nil {
				log.Fatalf("kv3d-explore: %v", err)
			}
			if err := tr.WriteJSON(f); err != nil {
				f.Close()
				log.Fatalf("kv3d-explore: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("kv3d-explore: %v", err)
			}
			fmt.Fprintf(os.Stderr, "kv3d-explore: trace written to %s (load it in Perfetto / chrome://tracing)\n", *tracePath)
		}
		probes = append(reg.Snapshot(),
			obs.Probe{Name: "explore.server.stacks", Value: float64(e.Stacks)},
			obs.Probe{Name: "explore.server.cores", Value: float64(e.Cores)},
			obs.Probe{Name: "explore.server.density_bytes", Value: float64(e.DensityBytes)},
			obs.Probe{Name: "explore.server.area_cm2", Value: e.AreaCM2},
			obs.Probe{Name: "explore.server.power_max_w", Value: e.PowerMaxW},
			obs.Probe{Name: "explore.server.power_64b_w", Value: e.Power64BW},
			obs.Probe{Name: "explore.server.max_bw_bytes_per_sec", Value: e.MaxBWBytesPerSec},
			obs.Probe{Name: "explore.server.tps_64b", Value: e.TPS64B},
			obs.Probe{Name: "explore.server.mean_rtt_64b_ns", Value: float64(e.MeanRTT64B) / float64(sim.Nanosecond)},
			obs.Probe{Name: "explore.server.sub_ms_fraction_64b", Value: e.SubMsFraction64B},
		)
	}
	if *jsonOut {
		if err := obs.WriteProbesJSON(os.Stdout, probes); err != nil {
			log.Fatalf("kv3d-explore: %v", err)
		}
		return
	}
	t.Render(os.Stdout)
}

// stackCfg lifts a physical design into the stack-level simulator
// configuration the validation run needs.
func stackCfg(d server.Design) stackmodel.Config {
	return stackmodel.Config{
		Core:          d.Core,
		Cache:         d.Cache,
		Mem:           d.Mem,
		CoresPerStack: d.CoresPerStack,
	}
}
