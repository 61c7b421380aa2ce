package obs

// The flight recorder is the live-side counterpart of Tracer: a bounded
// ring buffer of span/instant/async events safe for concurrent recording
// from connection goroutines, holding the most recent window of sampled
// operations. Where Tracer accumulates a whole (single-goroutine,
// sim-time) run and serializes once, FlightRecorder is always on:
// recording overwrites the oldest events when the ring is full, and a
// snapshot can be serialized at any moment — the crash-dump/trace-dump
// discipline of a real flight recorder.
//
// Like everything in obs, the recorder never reads a clock: every
// timestamp is a typed wall-nanosecond count (sim.Ns) handed in by the
// caller from its clock.Clock (the server's store clock). That keeps this file inside the
// determinism contract, and it makes the golden test for live
// traces possible: a scripted session with a fake clock serializes to
// byte-identical output.
//
// Every method is nil-receiver safe and the recording methods are
// allocation-free (//kv3d:hotpath): event slots are preallocated at
// construction and names/outcomes must be constant strings, so a
// sampled hot-path op costs one mutex acquisition and a few stores.

import (
	"bufio"
	"io"
	"strconv"
	"sync"

	"kv3d/internal/sim"
)

// flightEvent is one recorded live event; flat for the same reason
// traceEvent is. Timestamps are wall nanoseconds from the injected
// clock, not sim picoseconds.
type flightEvent struct {
	ts      sim.Ns
	dur     sim.Ns
	id      uint64
	arg     int64
	name    string
	cat     string
	outcome string
	track   TrackID
	ph      byte
}

// FlightRecorder records live events into a bounded ring. It is safe
// for concurrent use; a nil *FlightRecorder is a valid, disabled
// recorder whose methods all return immediately.
type FlightRecorder struct {
	// mu guards the ring: events is the fixed-capacity storage, next the
	// slot to overwrite, total the events ever recorded.
	mu     sync.Mutex
	events []flightEvent // guarded by mu
	next   int           // guarded by mu
	total  uint64        // guarded by mu
	tracks []string      // guarded by mu
	name   string        // process name in trace output; immutable
}

// DefaultFlightCapacity bounds the ring when callers pass 0.
const DefaultFlightCapacity = 4096

// NewFlightRecorder returns a recorder whose ring holds capacity events
// (DefaultFlightCapacity if capacity <= 0). name labels the recorder's
// synthetic process in trace output ("server", ...).
func NewFlightRecorder(name string, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{
		events: make([]flightEvent, capacity),
		tracks: []string{"main"},
		name:   name,
	}
}

// Enabled reports whether events are being recorded.
func (r *FlightRecorder) Enabled() bool { return r != nil }

// Dropped reports how many events have been overwritten by ring wrap.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.events)) {
		return 0
	}
	return r.total - uint64(len(r.events))
}

// RegisterTrack allocates a named track lane. On a nil recorder it
// returns track 0. Register tracks at wiring time, not on hot paths
// (the tracks slice grows).
func (r *FlightRecorder) RegisterTrack(name string) TrackID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks = append(r.tracks, name)
	return TrackID(len(r.tracks) - 1)
}

// record claims the next ring slot. Callers hold no lock; the ring
// mutex is the only synchronization (recording is sampled, so the
// critical section is short and rarely contended).
//
//kv3d:hotpath
func (r *FlightRecorder) record(ev flightEvent) {
	r.mu.Lock()
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Complete records a span [start, end) on a track. outcome may be ""
// or a constant string ("ok", "error", "busy") rendered into the
// span's args for filtering in Perfetto.
//
//kv3d:hotpath
func (r *FlightRecorder) Complete(track TrackID, name, outcome string, start, end sim.Ns) {
	if r == nil {
		return
	}
	r.record(flightEvent{
		ph: phaseComplete, track: track, name: name, outcome: outcome,
		ts: start, dur: end - start,
	})
}

// Instant records a point event on a track.
//
//kv3d:hotpath
func (r *FlightRecorder) Instant(track TrackID, name string, ts sim.Ns) {
	if r == nil {
		return
	}
	r.record(flightEvent{ph: phaseInstant, track: track, name: name, ts: ts})
}

// Counter records a sampled integer value as a stepped counter track.
//
//kv3d:hotpath
func (r *FlightRecorder) Counter(track TrackID, name string, ts sim.Ns, value int64) {
	if r == nil {
		return
	}
	r.record(flightEvent{ph: phaseCounter, track: track, name: name, ts: ts, arg: value})
}

// AsyncBegin opens an async span identified by (cat, id). The server
// records ("op", opaque) around each sampled binary op, so the span
// carries the id the client put on the wire.
//
//kv3d:hotpath
func (r *FlightRecorder) AsyncBegin(cat, name string, id uint64, ts sim.Ns) {
	if r == nil {
		return
	}
	r.record(flightEvent{ph: phaseAsyncBegin, cat: cat, name: name, id: id, ts: ts})
}

// AsyncEnd closes the async span opened with the same (cat, id).
//
//kv3d:hotpath
func (r *FlightRecorder) AsyncEnd(cat, name string, id uint64, ts sim.Ns) {
	if r == nil {
		return
	}
	r.record(flightEvent{ph: phaseAsyncEnd, cat: cat, name: name, id: id, ts: ts})
}

// snapshot copies the retained events oldest-first plus the track
// table, so serialization never holds the ring lock across I/O.
func (r *FlightRecorder) snapshot() (events []flightEvent, tracks []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.events)) {
		events = append(events, r.events[:r.total]...)
	} else {
		events = append(events, r.events[r.next:]...)
		events = append(events, r.events[:r.next]...)
	}
	tracks = append(tracks, r.tracks...)
	return events, tracks
}

// WriteTraceJSON serializes the current ring contents in Chrome
// trace-event format (Perfetto-loadable): one process (pid 1) named
// after the recorder, with its tracks as threads. The output is a pure
// function of the recorded events — field order, number formatting, and
// event order (oldest first) are fixed — so a scripted session with a
// fake clock produces byte-identical output (flight_golden_test.go in
// kvserver pins this). A nil recorder writes an empty trace.
func (r *FlightRecorder) WriteTraceJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	if r != nil {
		events, tracks := r.snapshot()
		bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":`)
		writeJSONString(bw, r.name)
		bw.WriteString(`}}`)
		for id, name := range tracks {
			bw.WriteString(",\n" + `{"name":"thread_name","ph":"M","pid":1,"tid":`)
			bw.WriteString(strconv.Itoa(id))
			bw.WriteString(`,"args":{"name":`)
			writeJSONString(bw, name)
			bw.WriteString(`}}`)
		}
		for i := range events {
			bw.WriteString(",\n")
			writeFlightEvent(bw, &events[i])
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeFlightEvent renders one live event with a fixed field order,
// mirroring writeEvent but in wall nanoseconds.
func writeFlightEvent(bw *bufio.Writer, ev *flightEvent) {
	bw.WriteString(`{"name":`)
	writeJSONString(bw, ev.name)
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(ev.ph)
	bw.WriteString(`","pid":1,"tid":`)
	bw.WriteString(strconv.Itoa(int(ev.track)))
	bw.WriteString(`,"ts":`)
	writeMicrosNs(bw, ev.ts)
	switch ev.ph {
	case phaseComplete:
		bw.WriteString(`,"dur":`)
		writeMicrosNs(bw, ev.dur)
		if ev.outcome != "" {
			bw.WriteString(`,"args":{"outcome":`)
			writeJSONString(bw, ev.outcome)
			bw.WriteString(`}`)
		}
	case phaseInstant:
		bw.WriteString(`,"s":"t"`)
	case phaseCounter:
		bw.WriteString(`,"args":{"value":`)
		bw.WriteString(strconv.FormatInt(ev.arg, 10))
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

// writeMicrosNs renders a typed nanosecond count as decimal
// microseconds with full nanosecond precision and no float round-trip:
// 1234567 ns -> "1234.567".
func writeMicrosNs(bw *bufio.Writer, ns sim.Ns) {
	neg := ns < 0
	if neg {
		bw.WriteByte('-')
		ns = -ns
	}
	const nsPerUs = 1_000
	bw.WriteString(strconv.FormatInt(int64(ns/nsPerUs), 10))
	frac := int64(ns % nsPerUs)
	if frac == 0 {
		return
	}
	var buf [4]byte
	buf[0] = '.'
	for i := 3; i >= 1; i-- {
		buf[i] = byte('0' + frac%10)
		frac /= 10
	}
	out := buf[:]
	for out[len(out)-1] == '0' {
		out = out[:len(out)-1]
	}
	bw.Write(out)
}
