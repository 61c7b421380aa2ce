package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kv3d/internal/metrics"
	"kv3d/internal/sim"
)

// TestNilTracerIsSafe exercises every method on a nil tracer: the whole
// point of the nil fast path is that model code can instrument
// unconditionally.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.RegisterTrack("x"); id != 0 {
		t.Fatalf("nil RegisterTrack = %d, want 0", id)
	}
	tr.Complete(0, "a", 1, 2)
	tr.Instant(0, "b", 3)
	tr.Counter(0, "c", 4, 5)
	tr.AsyncBegin("cat", "d", 1, 5)
	tr.AsyncEnd("cat", "d", 1, 6)
	if tr.Len() != 0 {
		t.Fatalf("nil tracer recorded %d events", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil tracer wrote invalid JSON: %s", buf.String())
	}
}

// TestWriteJSONIsValidAndComplete records one event of every kind and
// checks the serialized trace parses as the Chrome trace-event format
// with the expected entries.
func TestWriteJSONIsValidAndComplete(t *testing.T) {
	tr := NewTracer()
	stack := tr.RegisterTrack("stack-00")
	tr.Complete(stack, "serve", 1_000_000, 3_500_000)
	tr.Instant(stack, "drop", 4_000_000)
	tr.Counter(stack, "queue_depth", 5_000_000, 7)
	tr.AsyncBegin("req", "request", 42, 1_000_000)
	tr.AsyncEnd("req", "request", 42, 3_500_000)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			ID   string  `json:"id"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v\n%s", err, buf.String())
	}
	// 2 metadata (process + default track) + 1 track metadata + 5 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8:\n%s", len(doc.TraceEvents), buf.String())
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
		if ev.Name == "serve" {
			if ev.Ts != 1 || ev.Dur != 2.5 {
				t.Fatalf("serve span ts=%v dur=%v, want 1/2.5 us", ev.Ts, ev.Dur)
			}
			if ev.Tid != int(stack) {
				t.Fatalf("serve span on tid %d, want %d", ev.Tid, stack)
			}
		}
		if ev.Ph == "C" {
			if v := ev.Args["value"]; v != 7.0 {
				t.Fatalf("counter value = %v", v)
			}
		}
	}
	for _, want := range []string{"M", "X", "i", "C", "b", "e"} {
		if byPh[want] == 0 {
			t.Fatalf("no %q event in trace: %v", want, byPh)
		}
	}
}

// TestWriteJSONDeterministic records the same events twice and demands
// byte-identical output — the contract the serversim golden test builds
// on.
func TestWriteJSONDeterministic(t *testing.T) {
	build := func() string {
		tr := NewTracer()
		tk := tr.RegisterTrack("t")
		tr.Complete(tk, "s", 123_456_789, 123_999_999)
		tr.Counter(tk, "g", 1, 0.125)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same events, different bytes:\n%s\n---\n%s", a, b)
	}
}

// TestWriteMicros pins the picosecond -> microsecond rendering.
func TestWriteMicros(t *testing.T) {
	cases := map[sim.Ps]string{
		0:             "0",
		1:             "0.000001",
		1_000_000:     "1",
		1_234_567:     "1.234567",
		1_230_000:     "1.23",
		987_000_000:   "987",
		-1_500_000:    "-1.5",
		1_000_000_001: "1000.000001",
	}
	for ps, want := range cases {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeMicros(bw, ps)
		bw.Flush()
		if got := buf.String(); got != want {
			t.Errorf("writeMicros(%d) = %q, want %q", ps, got, want)
		}
	}
}

// TestRegistrySnapshotSorted checks snapshot determinism and counter
// identity.
func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(3)
	reg.Counter("a.first").Add(1)
	reg.Gauge("m.middle", func() float64 { return 2 })
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

func TestGaugeDoubleRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate gauge registration did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Gauge("g", func() float64 { return 0 })
	reg.Gauge("g", func() float64 { return 0 })
}

// TestSamplerCapturesSeries drives a simulator with a resource under
// load and checks the sampler's counter events see the queue build and
// drain at the expected sim-times.
func TestSamplerCapturesSeries(t *testing.T) {
	s := sim.New()
	r := sim.NewResource(s, 1)
	tr := NewTracer()
	track := tr.RegisterTrack("srv")
	sp := NewSampler(s, tr, 10*sim.Nanosecond)
	sp.Gauge(track, "srv.queue_depth", func() float64 { return float64(r.QueueLen()) })

	// Three 30ns jobs arrive at t=0: one serves, two queue.
	for i := 0; i < 3; i++ {
		r.Acquire(30*sim.Nanosecond, nil)
	}
	sp.Start(sim.Time(100 * sim.Nanosecond))
	s.Run()

	var series []traceEvent
	for _, ev := range tr.events {
		if ev.ph == phaseCounter && ev.name == "srv.queue_depth" {
			series = append(series, ev)
		}
	}
	if len(series) != 11 {
		t.Fatalf("got %d samples, want 11 (0..100ns every 10ns): %v", len(series), series)
	}
	if series[0].value != 2 {
		t.Fatalf("queue depth at t=0 = %v, want 2", series[0].value)
	}
	// After 90ns all three 30ns jobs are done.
	if last := series[len(series)-1]; last.value != 0 || last.ts != sim.Time(100*sim.Nanosecond) {
		t.Fatalf("last sample %+v, want value 0 at 100ns", last)
	}
}

func TestInstrumentResourceEmitsSpans(t *testing.T) {
	s := sim.New()
	r := sim.NewResource(s, 1)
	tr := NewTracer()
	InstrumentResource(tr, tr.RegisterTrack("srv"), r)
	r.Acquire(20*sim.Nanosecond, nil)
	r.Acquire(20*sim.Nanosecond, nil) // waits 20ns
	s.Run()

	var waits, serves int
	for i := range tr.events {
		switch tr.events[i].name {
		case "wait":
			waits++
			if tr.events[i].dur != 20*sim.Nanosecond {
				t.Fatalf("wait span dur = %v", tr.events[i].dur)
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
// tracing is off — the disabled path the tentpole requires to be ~zero.
func BenchmarkTracerNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Complete(0, "serve", sim.Time(i), sim.Time(i+1))
		tr.Counter(0, "q", sim.Time(i), 1)
	}
}

// BenchmarkTracerRecord measures the enabled hot path (append-only).
func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Complete(0, "serve", sim.Time(i), sim.Time(i+1))
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

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}
