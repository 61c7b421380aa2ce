package kvclient

// Client-side flight recording: per-attempt op spans plus instants for
// the resilience layer's decisions (retry, backoff, failover, breaker
// transitions). On binary connections each attempt stamps its
// correlation id into the request opaque, so merging the client's
// recorder with the servers' (obs.WriteMergedTraceJSON) joins a client
// attempt to the exact server-side parse/execute/write phases that
// handled it. ASCII has no opaque, so its spans stay client-side only.
//
// Stamps come from ClusterConfig.Clock, so a test on a clock.Fake
// records a reproducible trace.

import (
	"errors"
	"sync/atomic"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

// Span/instant names mirror the server's flightSink vocabulary: attempt
// spans reuse the protocol op-class strings ("get", "store", "delete")
// and async correlation uses the same ("op", opaque) key, which is what
// makes the merged view line up.
type clientFlight struct {
	rec    *obs.FlightRecorder
	clock  clock.Clock
	ops    obs.TrackID // per-attempt op spans
	events obs.TrackID // resilience-layer instants

	// opaque allocates correlation ids in the low range; BinaryClient
	// self-assigns from autoOpaqueBase up, so the two never collide.
	opaque atomic.Uint32
}

// newClientFlight returns nil (a valid, disabled recorder) when rec is
// nil; every method is nil-safe.
func newClientFlight(rec *obs.FlightRecorder, clk clock.Clock) *clientFlight {
	if rec == nil {
		return nil
	}
	return &clientFlight{
		rec:    rec,
		clock:  clk,
		ops:    rec.RegisterTrack("cli.ops"),
		events: rec.RegisterTrack("cli.events"),
	}
}

// nextOpaque hands out the next correlation id (never 0 — 0 means
// "uncorrelated" throughout the flight pipeline).
func (f *clientFlight) nextOpaque() uint32 {
	if f == nil {
		return 0
	}
	return f.opaque.Add(1)
}

// attempt records one try against one node: a Complete span with its
// outcome, plus the async begin/end pair carrying the wire opaque when
// the attempt was correlated (binary protocol).
func (f *clientFlight) attempt(name, outcome string, opaque uint32, start, end sim.Ns) {
	if f == nil {
		return
	}
	f.rec.Complete(f.ops, name, outcome, start, end)
	if opaque != 0 {
		f.rec.AsyncBegin("op", name, uint64(opaque), start)
		f.rec.AsyncEnd("op", name, uint64(opaque), end)
	}
}

// instant drops a named marker on the events track.
func (f *clientFlight) instant(name string) {
	if f == nil {
		return
	}
	f.rec.Instant(f.events, name, f.clock.Now())
}

// backoff records a retry sleep with its duration as the argument.
func (f *clientFlight) backoff(d time.Duration) {
	if f == nil {
		return
	}
	f.rec.InstantArg(f.events, "backoff", f.clock.Now(), d.Nanoseconds())
}

// flightOutcome maps an attempt error onto the same outcome vocabulary
// the server uses ("ok" / "error" / "busy"). Protocol-level results
// (miss, not-stored) count as ok: the op executed.
func flightOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBusy):
		return "busy"
	case isTransport(err):
		return "error"
	default:
		return "ok" // protocol-level result (miss, not-stored): the op executed
	}
}
