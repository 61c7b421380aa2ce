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
	var r *FlightRecorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	tr := r.RegisterTrack("x")
	r.Complete(tr, "op", "ok", 1, 2)
	r.Instant(tr, "ev", 3)
	r.Counter(tr, "c", 4, 9)
	r.AsyncBegin("op", "a", 1, 5)
	r.AsyncEnd("op", "a", 1, 6)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil recorder Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	var buf bytes.Buffer
	if err := r.WriteTraceJSON(&buf); err != nil {
		t.Fatalf("WriteTraceJSON on nil: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil-recorder trace is not valid JSON: %s", buf.Bytes())
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder("srv", 4)
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

// Serialization must be a pure function of the recorded events.
func TestFlightRecorderDeterministicOutput(t *testing.T) {
	build := func() *FlightRecorder {
		r := NewFlightRecorder("server", 64)
		tr := r.RegisterTrack("conn-1")
		r.Instant(tr, "conn.open", 100)
		r.Complete(tr, "get", "ok", 1_000, 2_500)
		r.Complete(tr, "set", "error", 3_000, 3_125)
		r.Counter(tr, "inflight", 5_000, 3)
		r.AsyncBegin("op", "get", 42, 1_000)
		r.AsyncEnd("op", "get", 42, 2_500)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteTraceJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteTraceJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two identical recordings serialized differently:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("trace is not valid JSON: %s", a.Bytes())
	}
	out := a.String()
	for _, want := range []string{
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
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestFlightRecorderConcurrentRecording(t *testing.T) {
	r := NewFlightRecorder("srv", 128)
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
	if err := r.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent-recording trace is not valid JSON")
	}
}

func TestWriteMicrosNs(t *testing.T) {
	cases := []struct {
		ns   sim.Ns
		want string
	}{
		{0, "0"},
		{1, "0.001"},
		{500, "0.5"},
		{1000, "1"},
		{1234567, "1234.567"},
		{2_500_000, "2500"},
		{-1500, "-1.5"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeMicrosNs(bw, c.ns)
		bw.Flush()
		if buf.String() != c.want {
			t.Errorf("writeMicrosNs(%d) = %q, want %q", c.ns, buf.String(), c.want)
		}
	}
}

// Len reports how many events the ring currently retains.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.events)) {
		return int(r.total)
	}
	return len(r.events)
}
