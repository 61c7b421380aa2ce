package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"kv3d/internal/sim"
)

// A nil recorder must accept every call and report empty state — the
// disabled live path exercises exactly this.
func TestFlightRecorderNilSafe(t *testing.T) {
	checkNilSafe[sim.Ns](t)
}

// TestNilTracerIsSafe is the same for the simulator's sim.Time
// recorder: the whole point of the nil fast path is that model code can
// instrument unconditionally.
func TestNilTracerIsSafe(t *testing.T) {
	checkNilSafe[sim.Time](t)
}

func checkNilSafe[T Tick](t *testing.T) {
	t.Helper()
	var r *FlightRecorder[T]
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	tr := r.RegisterTrack("x")
	if tr != 0 {
		t.Fatalf("nil RegisterTrack = %d, want 0", tr)
	}
	r.Complete(tr, "op", "ok", 1, 2)
	r.Instant(tr, "ev", 3)
	r.Counter(tr, "c", 4, 9)
	r.AsyncBegin("op", "a", 1, 5)
	r.AsyncEnd("op", "a", 1, 6)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil recorder Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	renderTrace(t, r)
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder[sim.Ns]("srv", 4)
	tr := r.RegisterTrack("t")
	for i := 0; i < 10; i++ {
		r.Instant(tr, "ev", sim.Ns(i*1000))
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	// The retained window must be the newest four events, oldest first.
	events, _ := r.snapshot()
	want := []sim.Ns{6000, 7000, 8000, 9000}
	for i, ev := range events {
		if ev.ts != want[i] {
			t.Fatalf("event %d ts = %d, want %d", i, ev.ts, want[i])
		}
	}
}

// Capacity 0 is the simulator's mode: every event is kept, none is
// dropped, in recording order.
func TestFlightRecorderKeepsEverything(t *testing.T) {
	r := NewFlightRecorder[sim.Time]("kv3d", 0)
	for i := 0; i < 1000; i++ {
		r.Instant(0, "ev", sim.Time(i))
	}
	if r.Len() != 1000 || r.Dropped() != 0 {
		t.Fatalf("Len = %d, Dropped = %d, want 1000 and 0", r.Len(), r.Dropped())
	}
	events, _ := r.snapshot()
	for i, ev := range events {
		if ev.ts != sim.Time(i) {
			t.Fatalf("event %d ts = %d", i, ev.ts)
		}
	}
}

// Each recorder keeps its own tick. A wall-clock reading is ~1.8e18 ns
// since the Unix epoch, past int64 in picoseconds, so a recorder that
// stored both sides in picoseconds would garble it; the simulator's
// picoseconds must keep their sub-nanosecond digits.
func TestFlightRecorderKeepsEachTick(t *testing.T) {
	const epochNs = sim.Ns(1_760_000_000_123_456_789)
	live := NewFlightRecorder[sim.Ns]("server", 8)
	live.Complete(0, "get", "ok", epochNs, epochNs+1_500)
	model := NewFlightRecorder[sim.Time]("kv3d", 0)
	model.Complete(0, "serve", "", 1_234_567, 3_734_568)
	for trace, want := range map[string]string{
		renderTrace(t, live):  `"ts":1760000000123456.789,"dur":1.5,`,
		renderTrace(t, model): `"ts":1.234567,"dur":2.500001}`,
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace lacks %s:\n%s", want, trace)
		}
	}
}

// TestWriteJSONIsValidAndComplete records one event of every kind and
// checks the serialized trace parses as the Chrome trace-event format
// with the expected entries.
func TestWriteJSONIsValidAndComplete(t *testing.T) {
	tr := NewFlightRecorder[sim.Time]("kv3d", 0)
	stack := tr.RegisterTrack("stack-00")
	tr.Complete(stack, "serve", "", 1_000_000, 3_500_000)
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

// Serialization must be a pure function of the recorded events: the
// kvserver flight golden test builds on this.
func TestFlightRecorderDeterministicOutput(t *testing.T) {
	build := func() *FlightRecorder[sim.Ns] {
		r := NewFlightRecorder[sim.Ns]("server", 64)
		tr := r.RegisterTrack("conn-1")
		r.Instant(tr, "conn.open", 100)
		r.Complete(tr, "get", "ok", 1_000, 2_500)
		r.Complete(tr, "set", "error", 3_000, 3_125)
		r.Counter(tr, "inflight", 3_200, 3)
		r.AsyncBegin("op", "get", 42, 1_000)
		r.AsyncEnd("op", "get", 42, 2_500)
		return r
	}
	checkDeterministic(t, renderTrace(t, build()), renderTrace(t, build()),
		`"displayTimeUnit":"ns"`,
		`"args":{"name":"server"}`,
		`"args":{"name":"conn-1"}`,
		`"args":{"outcome":"ok"}`,
		`"args":{"outcome":"error"}`,
		`"args":{"value":3}`,
		`"cat":"op","id":"42"`,
		// 2500 ns span starting at 1000 ns -> ts 1 µs, dur 1.5 µs.
		`"ts":1,"dur":1.5`,
		// 125 ns duration -> 0.125 µs.
		`"dur":0.125`,
	)
}

// TestWriteJSONDeterministic records the same simulator events twice
// and demands byte-identical output — the contract the serversim golden
// test builds on.
func TestWriteJSONDeterministic(t *testing.T) {
	build := func() *FlightRecorder[sim.Time] {
		r := NewFlightRecorder[sim.Time]("kv3d", 0)
		tk := r.RegisterTrack("t")
		r.Complete(tk, "s", "", 123_456_789, 123_999_999)
		r.Counter(tk, "g", 1, 125)
		return r
	}
	checkDeterministic(t, renderTrace(t, build()), renderTrace(t, build()),
		`"args":{"name":"kv3d"}`,
		`"ts":123.456789,"dur":0.54321}`,
		`"ts":0.000001,"args":{"value":125}`,
	)
}

// checkDeterministic fails unless two renderings of the same recording
// are identical and contain every wanted fragment.
func checkDeterministic(t *testing.T, a, b string, want ...string) {
	t.Helper()
	if a != b {
		t.Fatalf("two identical recordings serialized differently:\n%s\nvs\n%s", a, b)
	}
	for _, w := range want {
		if !strings.Contains(a, w) {
			t.Errorf("trace output missing %q:\n%s", w, a)
		}
	}
}

// renderTrace serializes r and checks the document is valid JSON.
func renderTrace[T Tick](t *testing.T, r *FlightRecorder[T]) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON: %s", buf.Bytes())
	}
	return buf.String()
}

func TestFlightRecorderConcurrentRecording(t *testing.T) {
	r := NewFlightRecorder[sim.Ns]("srv", 128)
	tr := r.RegisterTrack("t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Complete(tr, "op", "ok", sim.Ns(i), sim.Ns(i+1))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Len(); got != 128 {
		t.Fatalf("Len = %d, want full ring 128", got)
	}
	if got := r.Dropped(); got != 8*1000-128 {
		t.Fatalf("Dropped = %d, want %d", got, 8*1000-128)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent-recording trace is not valid JSON")
	}
}

// TestWriteMicros pins the picosecond -> microsecond rendering
// (1e6 ticks per µs).
func TestWriteMicros(t *testing.T) {
	checkWriteMicros(t, 1_000_000, map[int64]string{
		0:             "0",
		1:             "0.000001",
		1_000_000:     "1",
		1_234_567:     "1.234567",
		1_230_000:     "1.23",
		987_000_000:   "987",
		-1_500_000:    "-1.5",
		1_000_000_001: "1000.000001",
	})
}

// TestWriteMicrosNs pins the nanosecond -> microsecond rendering
// (1e3 ticks per µs).
func TestWriteMicrosNs(t *testing.T) {
	checkWriteMicros(t, 1_000, map[int64]string{
		0:         "0",
		1:         "0.001",
		500:       "0.5",
		1000:      "1",
		1234567:   "1234.567",
		2_500_000: "2500",
		-1500:     "-1.5",
	})
}

func checkWriteMicros(t *testing.T, perUs int64, cases map[int64]string) {
	t.Helper()
	for ticks, want := range cases {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeMicros(bw, ticks, perUs)
		bw.Flush()
		if got := buf.String(); got != want {
			t.Errorf("writeMicros(%d, %d) = %q, want %q", ticks, perUs, got, want)
		}
	}
}

// Len reports how many events the recorder currently retains.
func (r *FlightRecorder[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
