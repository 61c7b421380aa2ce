package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kv3d/internal/metrics"
	"kv3d/internal/sim"
)

// TestRegistrySnapshotSorted checks snapshot determinism and counter
// identity.
func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(3)
	reg.Counter("a.first").Add(1)
	reg.Counter("m.middle").Add(2)
	if c := reg.Counter("z.last"); c.Value() != 3 {
		t.Fatal("Counter did not return the existing counter")
	}
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d probes", len(snap))
	}
	wantNames := []string{"a.first", "m.middle", "z.last"}
	for i, p := range snap {
		if p.Name != wantNames[i] {
			t.Fatalf("snapshot order %v", snap)
		}
		if p.Value != float64(i+1) {
			t.Fatalf("probe %s = %v, want %d", p.Name, p.Value, i+1)
		}
	}
}

// TestSamplerCapturesSeries drives a simulator with a resource under
// load and checks the sampler's counter events see the queue build and
// drain at the expected sim-times.
func TestSamplerCapturesSeries(t *testing.T) {
	s := sim.New()
	r := sim.NewResource(s, 1)
	tr := NewFlightRecorder[sim.Time]("kv3d", 0)
	track := tr.RegisterTrack("srv")
	sp := NewSampler(s, tr, 10*sim.Nanosecond)
	sp.Gauge(track, "srv.queue_depth", func() int64 { return int64(r.QueueLen()) })

	// Three 30ns jobs arrive at t=0: one serves, two queue.
	for i := 0; i < 3; i++ {
		r.Acquire(30*sim.Nanosecond, nil)
	}
	sp.Start(sim.Time(100 * sim.Nanosecond))
	s.Run()

	var series []event[sim.Time]
	events, _ := tr.snapshot()
	for _, ev := range events {
		if ev.ph == phaseCounter && ev.name == "srv.queue_depth" {
			series = append(series, ev)
		}
	}
	if len(series) != 11 {
		t.Fatalf("got %d samples, want 11 (0..100ns every 10ns): %v", len(series), series)
	}
	if series[0].arg != 2 {
		t.Fatalf("queue depth at t=0 = %v, want 2", series[0].arg)
	}
	// After 90ns all three 30ns jobs are done.
	if last := series[len(series)-1]; last.arg != 0 || last.ts != sim.Time(100*sim.Nanosecond) {
		t.Fatalf("last sample %+v, want value 0 at 100ns", last)
	}
}

func TestInstrumentResourceEmitsSpans(t *testing.T) {
	s := sim.New()
	r := sim.NewResource(s, 1)
	tr := NewFlightRecorder[sim.Time]("kv3d", 0)
	InstrumentResource(tr, tr.RegisterTrack("srv"), r)
	r.Acquire(20*sim.Nanosecond, nil)
	r.Acquire(20*sim.Nanosecond, nil) // waits 20ns
	s.Run()

	var waits, serves int
	events, _ := tr.snapshot()
	for _, ev := range events {
		switch ev.name {
		case "wait":
			waits++
			if ev.arg != int64(20*sim.Nanosecond) {
				t.Fatalf("wait span dur = %v", ev.arg)
			}
		case "serve":
			serves++
		}
	}
	if waits != 1 || serves != 2 {
		t.Fatalf("waits=%d serves=%d, want 1/2", waits, serves)
	}
}

func TestInstrumentSimulatorCountsEvents(t *testing.T) {
	s := sim.New()
	reg := NewRegistry()
	InstrumentSimulator(reg, s)
	for i := 0; i < 5; i++ {
		s.After(sim.Duration(i)*sim.Nanosecond, func() {})
	}
	s.Run()
	if got := reg.Counter("sim.events_dispatched").Value(); got != 5 {
		t.Fatalf("dispatched = %d, want 5", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	probes := []Probe{
		{Name: "live.store.get_hits", Value: 12},
		{Name: "serversim.stack-00.queue_depth", Value: 0.5},
	}
	if err := WritePrometheus(&buf, probes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE kv3d_live_store_get_hits gauge\n",
		"kv3d_live_store_get_hits 12\n",
		"kv3d_serversim_stack_00_queue_depth 0.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSummaryProbes(t *testing.T) {
	h := metrics.NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	probes := SummaryProbes("live.op.get.latency_ns", h.Summarize())
	if len(probes) != 7 {
		t.Fatalf("got %d probes", len(probes))
	}
	if probes[5].Name != "live.op.get.latency_ns.p999" {
		t.Fatalf("p999 probe = %+v", probes[5])
	}
	if probes[0].Name != "live.op.get.latency_ns.count" || probes[0].Value != 100 {
		t.Fatalf("count probe = %+v", probes[0])
	}
}

// BenchmarkTracerNil measures the cost of instrumentation calls when
// tracing is off — the disabled path that must cost ~zero.
func BenchmarkTracerNil(b *testing.B) {
	var tr *FlightRecorder[sim.Time]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Complete(0, "serve", "", sim.Time(i), sim.Time(i+1))
		tr.Counter(0, "q", sim.Time(i), 1)
	}
}

// BenchmarkTracerRecord measures the enabled hot path of a simulator
// run's recorder, which keeps every event.
func BenchmarkTracerRecord(b *testing.B) {
	tr := NewFlightRecorder[sim.Time]("kv3d", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Complete(0, "serve", "", sim.Time(i), sim.Time(i+1))
	}
}

func TestWriteProbesJSON(t *testing.T) {
	probes := []Probe{
		{Name: "b.two", Value: 2},
		{Name: "a.one", Value: 0.5},
	}
	var buf bytes.Buffer
	if err := WriteProbesJSON(&buf, probes); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["a.one"] != 0.5 || m["b.two"] != 2 {
		t.Fatalf("decoded = %v", m)
	}
	// Output is sorted by name regardless of input order.
	if ia, ib := bytes.Index(buf.Bytes(), []byte("a.one")), bytes.Index(buf.Bytes(), []byte("b.two")); ia > ib {
		t.Fatalf("probes not sorted:\n%s", buf.String())
	}
	// Empty set still renders a valid object.
	buf.Reset()
	if err := WriteProbesJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid empty JSON: %s", buf.String())
	}
}
