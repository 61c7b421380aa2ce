package kvserver

// Flight recording: the server forwards sampled protocol.OpSpan phase
// timelines and its own lifecycle events (connection open/close,
// refusals, drain) into an obs.FlightRecorder ring. Each transport gets
// its own track so a merged trace shows ASCII, binary, and UDP lanes
// side by side; spans that carry an opaque additionally emit async
// begin/end events keyed by it, which is what lets a client's attempt
// span line up with this server's handling of that exact request in one
// Perfetto view.

import (
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// flightSink adapts sampled spans onto recorder events, on the track of
// the codec that served them. It implements protocol.SpanObserver;
// sessions call ObserveSpan from their connection goroutines (the
// recorder ring is the synchronization).
type flightSink struct {
	rec           *obs.FlightRecorder
	ascii, binary obs.TrackID
}

// ObserveSpan renders one op as an enclosing span (named by class,
// outcome in args) plus its parse / execute / write phase children,
// and — when the request carried a nonzero binary opaque — an async
// op span correlating it across the wire.
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

// serverFlight holds the server's recorder wiring: one lifecycle track,
// the sink of stream sessions, and the sink of datagram sessions, whose
// spans land on the UDP track whichever codec served them. All fields
// are set at construction and immutable afterwards.
type serverFlight struct {
	rec       *obs.FlightRecorder
	every     int
	life      obs.TrackID
	streams   flightSink
	datagrams flightSink
}

// newServerFlight registers the server's tracks on the recorder.
func newServerFlight(rec *obs.FlightRecorder, every int) *serverFlight {
	if every < 1 {
		every = DefaultFlightEvery
	}
	sf := &serverFlight{rec: rec, every: every, life: rec.RegisterTrack("srv.lifecycle")}
	sf.streams = flightSink{rec: rec, ascii: rec.RegisterTrack("srv.ascii"), binary: rec.RegisterTrack("srv.binary")}
	udp := rec.RegisterTrack("srv.udp")
	sf.datagrams = flightSink{rec: rec, ascii: udp, binary: udp}
	return sf
}

// DefaultFlightEvery is the sampling interval used when Options.Flight
// is set without an explicit FlightEvery: one op in 64 is traced, which
// keeps the recording cost negligible on the hot path while a busy
// server still fills the ring within seconds.
const DefaultFlightEvery = 64

// lifecycle event helpers; all nil-safe via the recorder contract.

func (sf *serverFlight) connOpen(ts sim.Ns)  { sf.rec.Instant(sf.life, "conn.open", ts) }
func (sf *serverFlight) connClose(ts sim.Ns) { sf.rec.Instant(sf.life, "conn.close", ts) }

func (sf *serverFlight) reject(reason RejectReason, ts sim.Ns) {
	switch reason {
	case RejectMaxConns:
		sf.rec.Instant(sf.life, "reject.max_conns", ts)
	case RejectDraining:
		sf.rec.Instant(sf.life, "reject.draining", ts)
	default:
		sf.rec.Instant(sf.life, "reject.busy", ts)
	}
}

func (sf *serverFlight) drainBegin(ts sim.Ns)  { sf.rec.Instant(sf.life, "server.drain.begin", ts) }
func (sf *serverFlight) drainEnd(ts sim.Ns)    { sf.rec.Instant(sf.life, "server.drain.end", ts) }
func (sf *serverFlight) serverClose(ts sim.Ns) { sf.rec.Instant(sf.life, "server.close", ts) }

func (sf *serverFlight) activeConns(ts sim.Ns, n int64) {
	sf.rec.Counter(sf.life, "conns.active", ts, n)
}
