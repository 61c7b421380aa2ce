package serversim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

// TestAttributionSumsToLatency checks the latency split the trace
// carries: per request, the queue and service phases add up to the
// request span, and the service phase sits at the same demand for
// every request (one op type, one value size).
func TestAttributionSumsToLatency(t *testing.T) {
	cfg := mercuryBox(4, 4)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 0.7
	cfg.Trace = obs.NewFlightRecorder[sim.Time]("kv3d", 0)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph, ID string
			Ts           float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	begin := map[string]float64{}
	phases := map[string]map[string]float64{} // request id -> phase -> µs
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			begin[ev.Name+"/"+ev.ID] = ev.Ts
		case "e":
			if phases[ev.ID] == nil {
				phases[ev.ID] = map[string]float64{}
			}
			phases[ev.ID][ev.Name] = ev.Ts - begin[ev.Name+"/"+ev.ID]
		}
	}
	service, requests := -1.0, 0
	for id, ph := range phases {
		latency, ok := ph["request"]
		if !ok {
			continue
		}
		requests++
		if d := ph["queue"] + ph["service"] - latency; math.Abs(d) > 1e-6 {
			t.Fatalf("request %s: queue %v + service %v != latency %v µs", id, ph["queue"], ph["service"], latency)
		}
		if service < 0 {
			service = ph["service"]
		}
		if math.Abs(ph["service"]-service) > 1e-6 {
			t.Fatalf("request %s: service %v µs, another took %v µs", id, ph["service"], service)
		}
	}
	if requests == 0 {
		t.Fatal("trace has no request spans")
	}
}

// runProbed runs cfg with a probe registry and returns the result and
// every probe's value by name.
func runProbed(t *testing.T, cfg Config) (Result, map[string]float64) {
	t.Helper()
	cfg.Probes = obs.NewRegistry()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, p := range cfg.Probes.Snapshot() {
		byName[p.Name] = p.Value
	}
	return r, byName
}

// TestIncompleteRequestsVisibleUnderOverload is the satellite fix: a
// saturated box must report the requests the bounded drain abandoned
// instead of silently dropping them from the accounting.
func TestIncompleteRequestsVisibleUnderOverload(t *testing.T) {
	cfg := mercuryBox(2, 2)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 3
	cfg.Duration = 100 * sim.Millisecond
	_, p := runProbed(t, cfg)
	arrivals, completions, incomplete := p["serversim.arrivals"], p["serversim.completions"], p["serversim.incomplete"]
	if arrivals != completions+incomplete {
		t.Fatalf("accounting broken: %v arrivals, %v completions, %v incomplete", arrivals, completions, incomplete)
	}
	// 3x overload for 100ms with a 50ms drain: the backlog cannot clear.
	if incomplete == 0 {
		t.Fatal("3x overload drained completely; serversim.incomplete is not measuring")
	}
}

// TestLightLoadCompletesEverything is the complement: with ample
// capacity the drain finishes every request.
func TestLightLoadCompletesEverything(t *testing.T) {
	cfg := mercuryBox(4, 4)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 0.2
	_, p := runProbed(t, cfg)
	arrivals, completions, incomplete := p["serversim.arrivals"], p["serversim.completions"], p["serversim.incomplete"]
	if incomplete != 0 {
		t.Fatalf("light load left %v of %v requests incomplete", incomplete, arrivals)
	}
	if arrivals == 0 || completions != arrivals {
		t.Fatalf("arrivals %v, completions %v", arrivals, completions)
	}
}

// TestTracingDoesNotPerturbResults runs the same config with and
// without a tracer and demands identical measurements — observation
// must be free of observer effects on the model.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cfg := mercuryBox(4, 4)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 0.8
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := cfg
	traced.Trace = obs.NewFlightRecorder[sim.Time]("kv3d", 0)
	traced.Probes = obs.NewRegistry()
	withObs, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(plain) != renderResult(withObs) {
		t.Fatalf("tracing changed the result:\n%s\nvs\n%s", renderResult(plain), renderResult(withObs))
	}
	var trace strings.Builder
	if err := traced.Trace.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ts":`) {
		t.Fatal("tracer recorded nothing")
	}
}

// TestProbesMatchResult checks the registry counters agree with each
// other and with the Result: every arrival completes or is counted
// incomplete, and the per-stack completion probes count exactly the
// requests the measured latency summarizes.
func TestProbesMatchResult(t *testing.T) {
	cfg := mercuryBox(2, 4)
	nominal, _ := NominalTPS(cfg)
	cfg.OfferedTPS = nominal * 0.5
	r, byName := runProbed(t, cfg)
	if byName["serversim.arrivals"] != byName["serversim.completions"]+byName["serversim.incomplete"] {
		t.Fatalf("arrivals %v != completions %v + incomplete %v",
			byName["serversim.arrivals"], byName["serversim.completions"], byName["serversim.incomplete"])
	}
	if byName["sim.events_dispatched"] == 0 {
		t.Fatal("dispatch hook probe did not count")
	}
	var perStack float64
	for i := 0; i < cfg.Stacks; i++ {
		perStack += byName[fmt.Sprintf("serversim.stack-%02d.completed", i)]
	}
	if perStack != float64(r.Latency.Count) {
		t.Fatalf("per-stack completion probes sum to %v, latency summarizes %d", perStack, r.Latency.Count)
	}
}
