// Package obs is the observability layer shared by the simulation and
// the live server: one flight recorder whose span/event trace
// serializes to Chrome trace-event JSON (loadable in chrome://tracing
// and Perfetto), a registry of named counters, a sim-time sampler that
// captures time series on the event queue, and a Prometheus
// text-exposition writer for the live metrics endpoint.
//
// The package obeys the repo's determinism contract (LINTING.md): it
// never reads wall clocks or ambient randomness — every timestamp is
// handed in by the caller, a sim.Time from the simulator or a sim.Ns
// from the live server's injected clock, so the same seeded run (or
// the same scripted session on a fake clock) produces a byte-identical
// trace.
//
// Every FlightRecorder method is safe on a nil receiver and returns
// immediately, so model and server code can instrument unconditionally
// and pay only a pointer nil-check when tracing is off (benchmarked in
// flight_test.go and the root bench_test.go Tracer benchmarks).
//
// Probe naming scheme (see OBSERVABILITY.md): dot-separated
// "<domain>.<component>.<metric>", e.g. "serversim.stack-00.queue_depth"
// or "live.store.get_hits". The Prometheus writer maps names onto the
// exposition charset (dots and dashes become underscores, a kv3d_ prefix
// is added), so the same names appear in traces, -json output, and the
// /metrics endpoint.
package obs
