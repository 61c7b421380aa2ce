package kvserver

// Flight recording: the server forwards sampled protocol.OpSpan phase
// timelines and its own lifecycle events (connection open/close,
// refusals, drain) into an obs.FlightRecorder ring. Each codec gets its
// own track so a trace shows ASCII and binary lanes side by side; spans
// that carry an opaque additionally emit async begin/end events keyed
// by it, so a request can be found by the opaque its client sent.

import (
	"kv3d/internal/clock"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// flightSink adapts sampled spans onto recorder events, on the track of
// the codec that served them. It implements protocol.SpanObserver;
// sessions call ObserveSpan from their connection goroutines (the
// recorder ring is the synchronization).
type flightSink struct {
	rec           *obs.FlightRecorder[sim.Ns]
	ascii, binary obs.TrackID
}

// ObserveSpan renders one op as an enclosing span (named by class,
// outcome in args) plus its parse / execute / write phase children,
// and — when the request carried a nonzero binary opaque — an async
// op span keyed by that opaque.
//
//kv3d:hotpath
func (f *flightSink) ObserveSpan(sp protocol.OpSpan) {
	track := f.ascii
	if sp.Binary {
		track = f.binary
	}
	name := sp.Class.String()
	f.rec.Complete(track, name, sp.Outcome.String(), sp.Start, sp.End)
	f.rec.Complete(track, "parse", "", sp.Start, sp.ParseDone)
	f.rec.Complete(track, "execute", "", sp.ParseDone, sp.ExecDone)
	f.rec.Complete(track, "write", "", sp.ExecDone, sp.End)
	if sp.Opaque != 0 {
		f.rec.AsyncBegin("op", name, sp.Opaque, sp.Start)
		f.rec.AsyncEnd("op", name, sp.Opaque, sp.End)
	}
}

// serverFlight holds the server's recorder wiring: one lifecycle track
// stamped by the server's clock, and the sink of its sessions. All
// fields are set at construction and immutable afterwards.
type serverFlight struct {
	rec      *obs.FlightRecorder[sim.Ns]
	clock    clock.Clock
	every    int
	life     obs.TrackID
	sessions flightSink
}

// newServerFlight registers the server's tracks on the recorder.
func newServerFlight(rec *obs.FlightRecorder[sim.Ns], clk clock.Clock, every int) *serverFlight {
	if every < 1 {
		every = DefaultFlightEvery
	}
	sf := &serverFlight{rec: rec, clock: clk, every: every, life: rec.RegisterTrack("srv.lifecycle")}
	sf.sessions = flightSink{rec: rec, ascii: rec.RegisterTrack("srv.ascii"), binary: rec.RegisterTrack("srv.binary")}
	return sf
}

// DefaultFlightEvery is the sampling interval used when Options.Flight
// is set without an explicit FlightEvery: one op in 64 is traced, which
// keeps the recording cost negligible on the hot path while a busy
// server still fills the ring within seconds.
const DefaultFlightEvery = 64

// lifecycle records one lifecycle instant at the server's clock; a nil
// serverFlight records nothing.
func (sf *serverFlight) lifecycle(name string) {
	if sf != nil {
		sf.rec.Instant(sf.life, name, sf.clock.Now())
	}
}

// conns records a connection opening or closing and the active count
// it leaves, at one clock reading.
func (sf *serverFlight) conns(name string, active int64) {
	if sf != nil {
		ts := sf.clock.Now()
		sf.rec.Instant(sf.life, name, ts)
		sf.rec.Counter(sf.life, "conns.active", ts, active)
	}
}
