// Package obs is the observability layer shared by the simulation and
// the live server: deterministic span/event tracing in sim-time that
// serializes to Chrome trace-event JSON (loadable in chrome://tracing
// and Perfetto), a registry of named probes (counters and gauges), a
// sim-time sampler that captures time series on the event queue, and a
// Prometheus text-exposition writer for the live metrics endpoint.
//
// The package obeys the repo's determinism contract (LINTING.md): it
// never reads wall clocks or ambient randomness — every timestamp is a
// sim.Time handed in by the caller, so the same seeded run produces a
// byte-identical trace. On the live side callers stamp events with an
// injected clock; obs itself stays clock-free.
//
// Every Tracer method is safe on a nil receiver and returns immediately,
// so model code can instrument unconditionally and pay only a pointer
// nil-check when tracing is off (benchmarked in obs_test.go and the root
// bench_test.go Tracer benchmarks).
//
// Probe naming scheme (see OBSERVABILITY.md): dot-separated
// "<domain>.<component>.<metric>", e.g. "serversim.stack-00.queue_depth"
// or "live.store.get_hits". The Prometheus writer maps names onto the
// exposition charset (dots and dashes become underscores, a kv3d_ prefix
// is added), so the same names appear in traces, -json output, and the
// /metrics endpoint.
package obs

import (
	"bufio"
	"io"
	"strconv"

	"kv3d/internal/sim"
)

// TrackID identifies one named track ("thread") in the trace. Track 0 is
// the default track; RegisterTrack allocates labeled per-stack tracks.
type TrackID int32

// phase bytes of the Chrome trace-event format.
const (
	phaseComplete   = 'X'
	phaseInstant    = 'i'
	phaseCounter    = 'C'
	phaseAsyncBegin = 'b'
	phaseAsyncEnd   = 'e'
)

// traceEvent is one recorded event. One flat struct (no per-kind
// allocation) keeps recording cheap; unused fields stay zero.
type traceEvent struct {
	ts    sim.Time
	dur   sim.Duration
	id    uint64
	value float64
	name  string
	cat   string
	track TrackID
	ph    byte
}

// Tracer accumulates events and serializes them once at the end of a
// run. It is single-goroutine, like the simulation kernel it observes;
// live-side callers must provide their own serialization.
type Tracer struct {
	events []traceEvent
	tracks []string // index = TrackID, value = display name
}

// NewTracer returns an empty tracer with one default track.
func NewTracer() *Tracer {
	return &Tracer{tracks: []string{"main"}}
}

// Enabled reports whether events are being recorded. It is the fast
// path: a nil *Tracer is a valid, disabled tracer.
func (t *Tracer) Enabled() bool { return t != nil }

// RegisterTrack allocates a named track (rendered as a thread lane in
// Perfetto). On a nil tracer it returns track 0.
func (t *Tracer) RegisterTrack(name string) TrackID {
	if t == nil {
		return 0
	}
	t.tracks = append(t.tracks, name)
	return TrackID(len(t.tracks) - 1)
}

// Complete records a span [start, end) on a track.
//
//kv3d:hotpath
func (t *Tracer) Complete(track TrackID, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		ph: phaseComplete, track: track, name: name, ts: start, dur: end.Sub(start),
	})
}

// Instant records a point event on a track.
//
//kv3d:hotpath
func (t *Tracer) Instant(track TrackID, name string, ts sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{ph: phaseInstant, track: track, name: name, ts: ts})
}

// Counter records a sampled value; Perfetto renders each counter name as
// its own stepped time-series track.
//
//kv3d:hotpath
func (t *Tracer) Counter(track TrackID, name string, ts sim.Time, value float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		ph: phaseCounter, track: track, name: name, ts: ts, value: value,
	})
}

// AsyncBegin opens an async span identified by (cat, id). Async spans
// may overlap freely, which is how per-request lifecycles are drawn:
// one id per request, nested b/e pairs for its phases.
//
//kv3d:hotpath
func (t *Tracer) AsyncBegin(cat, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		ph: phaseAsyncBegin, cat: cat, name: name, id: id, ts: ts,
	})
}

// AsyncEnd closes the async span opened with the same (cat, id).
//
//kv3d:hotpath
func (t *Tracer) AsyncEnd(cat, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		ph: phaseAsyncEnd, cat: cat, name: name, id: id, ts: ts,
	})
}

// WriteJSON serializes the trace in Chrome trace-event format. The
// output is a pure function of the recorded events — field order, number
// formatting and event order are all fixed — so a seeded run's trace is
// byte-identical across runs and platforms (the golden-file test in
// serversim depends on this).
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if t != nil {
		sep()
		bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"kv3d"}}`)
		for id, name := range t.tracks {
			sep()
			bw.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
			bw.WriteString(strconv.Itoa(id))
			bw.WriteString(`,"args":{"name":`)
			writeJSONString(bw, name)
			bw.WriteString(`}}`)
		}
		for i := range t.events {
			sep()
			writeEvent(bw, &t.events[i])
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeEvent renders one event with a fixed field order.
func writeEvent(bw *bufio.Writer, ev *traceEvent) {
	bw.WriteString(`{"name":`)
	writeJSONString(bw, ev.name)
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(ev.ph)
	bw.WriteString(`","pid":1,"tid":`)
	bw.WriteString(strconv.Itoa(int(ev.track)))
	bw.WriteString(`,"ts":`)
	writeMicros(bw, ev.ts.Ps())
	switch ev.ph {
	case phaseComplete:
		bw.WriteString(`,"dur":`)
		writeMicros(bw, ev.dur.Ps())
	case phaseInstant:
		bw.WriteString(`,"s":"t"`)
	case phaseCounter:
		bw.WriteString(`,"args":{"value":`)
		bw.WriteString(strconv.FormatFloat(ev.value, 'g', -1, 64))
		bw.WriteString(`}`)
	case phaseAsyncBegin, phaseAsyncEnd:
		bw.WriteString(`,"cat":`)
		writeJSONString(bw, ev.cat)
		bw.WriteString(`,"id":"`)
		bw.WriteString(strconv.FormatUint(ev.id, 10))
		bw.WriteString(`"`)
	}
	bw.WriteString(`}`)
}

// writeMicros renders a typed picosecond count as decimal microseconds
// (the trace format's time unit) with full picosecond precision and no
// float round-trip: 1234567 ps -> "1.234567".
func writeMicros(bw *bufio.Writer, ps sim.Ps) {
	neg := ps < 0
	if neg {
		bw.WriteByte('-')
		ps = -ps
	}
	const psPerUs = 1_000_000
	bw.WriteString(strconv.FormatInt(int64(ps/psPerUs), 10))
	frac := int64(ps % psPerUs)
	if frac == 0 {
		return
	}
	// Six fractional digits, then strip trailing zeros for compactness.
	var buf [7]byte
	buf[0] = '.'
	for i := 6; i >= 1; i-- {
		buf[i] = byte('0' + frac%10)
		frac /= 10
	}
	out := buf[:]
	for out[len(out)-1] == '0' {
		out = out[:len(out)-1]
	}
	bw.Write(out)
}

// writeJSONString escapes a name for embedding in the trace. Names are
// repo-controlled ASCII, so only the JSON structural characters and
// control bytes need handling.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString(`\u00`)
			bw.WriteByte(hex[c>>4])
			bw.WriteByte(hex[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}
