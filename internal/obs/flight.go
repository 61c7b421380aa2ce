package obs

// The flight recorder is obs's one trace recorder, for both halves of
// the repo. With a positive capacity it is a bounded ring, safe for
// concurrent recording from connection goroutines, that holds the most
// recent window of sampled live operations: recording overwrites the
// oldest events when the ring is full, and a snapshot can be
// serialized at any moment — the crash-dump/trace-dump discipline of a
// real flight recorder. With capacity 0 it keeps every event, which is
// how a single-goroutine simulator run is recorded whole and
// serialized once at the end (the mutex is then uncontended).
//
// Each recorder counts time in its own tick, the type parameter:
// sim.Time (picoseconds since the simulation started) or sim.Ns (wall
// nanoseconds from the caller's clock.Clock). The tick is not converted
// on the way in — a wall reading is about 1.8e18 ns since the Unix
// epoch, which in picoseconds would overflow int64 — only the
// serializer divides by the tick's count per microsecond.
//
// Like everything in obs, the recorder never reads a clock: every
// timestamp is handed in by the caller. That keeps this file inside the
// determinism contract, and it makes the golden tests possible: a
// seeded simulator run, or a scripted session with a fake clock,
// serializes to byte-identical output.
//
// Every method is nil-receiver safe and the recording methods are
// allocation-free (//kv3d:hotpath) on a ring, whose slots are
// preallocated at construction; names/outcomes must be constant
// strings, so a sampled hot-path op costs one mutex acquisition and a
// few stores.

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"sync"

	"kv3d/internal/sim"
)

// Tick is a recorder's time unit: simulated picoseconds or wall
// nanoseconds.
type Tick interface{ sim.Time | sim.Ns }

// ticksPerMicro is T's count per microsecond, the trace format's unit.
func ticksPerMicro[T Tick]() int64 {
	var zero T
	if _, ps := any(zero).(sim.Time); ps {
		return int64(sim.Microsecond)
	}
	return 1_000
}

// TrackID identifies one named track ("thread") in the trace. Track 0 is
// the default track; RegisterTrack allocates labeled tracks.
type TrackID int32

// phase bytes of the Chrome trace-event format.
const (
	phaseComplete   = 'X'
	phaseInstant    = 'i'
	phaseCounter    = 'C'
	phaseAsyncBegin = 'b'
	phaseAsyncEnd   = 'e'
)

// event is one recorded event. One flat struct (no per-kind
// allocation) keeps recording cheap, and a small one keeps a run that
// keeps every event compact, so two fields mean what the phase says:
// arg is a complete span's duration in ticks, a counter's value or an
// async span's id; label is a complete span's outcome ("" for none) or
// an async span's category.
type event[T Tick] struct {
	ts    T
	arg   int64
	name  string
	label string
	track TrackID
	ph    byte
}

// FlightRecorder records events in ticks of T. It is safe for
// concurrent use; a nil *FlightRecorder is a valid, disabled recorder
// whose methods all return immediately.
type FlightRecorder[T Tick] struct {
	// mu guards the events: once a ring is full, next is the oldest
	// slot (the one to overwrite) and dropped counts overwritten events.
	mu      sync.Mutex
	events  []event[T] // guarded by mu
	next    int        // guarded by mu
	dropped uint64     // guarded by mu
	tracks  []string   // guarded by mu
	limit   int        // ring capacity, 0 = keep everything; immutable
	name    string     // process name in trace output; immutable
}

// NewFlightRecorder returns a recorder that keeps the newest capacity
// events, or every event if capacity is 0; a negative capacity panics.
// name labels the recorder's synthetic process in trace output
// ("server", "kv3d", ...).
func NewFlightRecorder[T Tick](name string, capacity int) *FlightRecorder[T] {
	return &FlightRecorder[T]{
		events: make([]event[T], 0, capacity),
		tracks: []string{"main"},
		limit:  capacity,
		name:   name,
	}
}

// Enabled reports whether events are being recorded. It is the fast
// path: a nil *FlightRecorder is a valid, disabled recorder.
func (r *FlightRecorder[T]) Enabled() bool { return r != nil }

// Dropped reports how many events have been overwritten by ring wrap.
func (r *FlightRecorder[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// RegisterTrack allocates a named track lane (rendered as a thread in
// Perfetto). On a nil recorder it returns track 0. Register tracks at
// wiring time, not on hot paths (the tracks slice grows).
func (r *FlightRecorder[T]) RegisterTrack(name string) TrackID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks = append(r.tracks, name)
	return TrackID(len(r.tracks) - 1)
}

// record appends an event, or overwrites the oldest once a ring is
// full. Callers hold no lock; the mutex is the only synchronization
// (live recording is sampled, so the critical section is short and
// rarely contended). It takes the event's fields, not an event, which
// keeps every recording method small enough to inline: on a nil
// recorder a call costs the inlined nil check.
//
//kv3d:hotpath
func (r *FlightRecorder[T]) record(ph byte, track TrackID, name, label string, ts T, arg int64) {
	ev := event[T]{ts: ts, arg: arg, name: name, label: label, track: track, ph: ph}
	r.mu.Lock()
	if r.limit == 0 || len(r.events) < r.limit {
		r.events = append(r.events, ev)
	} else {
		r.events[r.next] = ev
		r.next++
		if r.next == r.limit {
			r.next = 0
		}
		r.dropped++
	}
	r.mu.Unlock()
}

// Complete records a span [start, end) on a track. outcome may be ""
// or a constant string ("ok", "error") rendered into the span's args
// for filtering in Perfetto.
//
//kv3d:hotpath
func (r *FlightRecorder[T]) Complete(track TrackID, name, outcome string, start, end T) {
	if r == nil {
		return
	}
	r.record(phaseComplete, track, name, outcome, start, int64(end-start))
}

// Instant records a point event on a track.
//
//kv3d:hotpath
func (r *FlightRecorder[T]) Instant(track TrackID, name string, ts T) {
	if r == nil {
		return
	}
	r.record(phaseInstant, track, name, "", ts, 0)
}

// Counter records a sampled integer value; Perfetto renders each
// counter name as its own stepped time-series track.
//
//kv3d:hotpath
func (r *FlightRecorder[T]) Counter(track TrackID, name string, ts T, value int64) {
	if r == nil {
		return
	}
	r.record(phaseCounter, track, name, "", ts, value)
}

// AsyncBegin opens an async span identified by (cat, id). Async spans
// may overlap freely, which is how per-request lifecycles are drawn:
// the simulator keys ("req", request id) with nested phases, the
// server ("op", opaque), so a span carries the id the client put on
// the wire.
//
//kv3d:hotpath
func (r *FlightRecorder[T]) AsyncBegin(cat, name string, id uint64, ts T) {
	if r == nil {
		return
	}
	r.record(phaseAsyncBegin, 0, name, cat, ts, int64(id))
}

// AsyncEnd closes the async span opened with the same (cat, id).
//
//kv3d:hotpath
func (r *FlightRecorder[T]) AsyncEnd(cat, name string, id uint64, ts T) {
	if r == nil {
		return
	}
	r.record(phaseAsyncEnd, 0, name, cat, ts, int64(id))
}

// snapshot copies the retained events oldest-first plus the track
// table, so serialization never holds the lock across I/O.
func (r *FlightRecorder[T]) snapshot() (events []event[T], tracks []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events = append(events, r.events[r.next:]...)
	events = append(events, r.events[:r.next]...)
	tracks = append(tracks, r.tracks...)
	return events, tracks
}

// WriteJSON serializes the retained events in Chrome trace-event
// format (Perfetto-loadable): one process (pid 1) named after the
// recorder, with its tracks as threads. The output is a pure function
// of the recorded events — field order, number formatting, and event
// order (oldest first) are fixed — so a seeded run's trace is
// byte-identical across runs and platforms (the golden tests in
// serversim and kvserver pin this). A nil recorder writes an empty
// trace.
func (r *FlightRecorder[T]) WriteJSON(w io.Writer) error {
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
		perUs := ticksPerMicro[T]()
		for i := range events {
			bw.WriteString(",\n")
			writeEvent(bw, &events[i], perUs)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeEvent renders one event with a fixed field order.
func writeEvent[T Tick](bw *bufio.Writer, ev *event[T], perUs int64) {
	bw.WriteString(`{"name":`)
	writeJSONString(bw, ev.name)
	bw.WriteString(`,"ph":"`)
	bw.WriteByte(ev.ph)
	bw.WriteString(`","pid":1,"tid":`)
	bw.WriteString(strconv.Itoa(int(ev.track)))
	bw.WriteString(`,"ts":`)
	writeMicros(bw, int64(ev.ts), perUs)
	switch ev.ph {
	case phaseComplete:
		bw.WriteString(`,"dur":`)
		writeMicros(bw, ev.arg, perUs)
		if ev.label != "" {
			bw.WriteString(`,"args":{"outcome":`)
			writeJSONString(bw, ev.label)
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
		writeJSONString(bw, ev.label)
		bw.WriteString(`,"id":"`)
		bw.WriteString(strconv.FormatUint(uint64(ev.arg), 10))
		bw.WriteString(`"`)
	}
	bw.WriteString(`}`)
}

// writeMicros renders a tick count as decimal microseconds (the trace
// format's time unit) with full tick precision, no float round-trip
// and trailing zeros stripped: 1234567 ps -> "1.234567", 1234567 ns ->
// "1234.567", and n ns reads the same as n*1000 ps. perUs is a power
// of ten.
func writeMicros(bw *bufio.Writer, ticks, perUs int64) {
	if ticks < 0 {
		bw.WriteByte('-')
		ticks = -ticks
	}
	bw.WriteString(strconv.FormatInt(ticks/perUs, 10))
	frac := ticks % perUs
	if frac == 0 {
		return
	}
	// perUs+frac is a 1 followed by the zero-padded fraction digits.
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], perUs+frac, 10)
	digits[0] = '.'
	bw.Write(bytes.TrimRight(digits, "0"))
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
