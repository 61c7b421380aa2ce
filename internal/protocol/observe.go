package protocol

import (
	"errors"

	"kv3d/internal/sim"
)

// OpClass buckets protocol commands for per-op latency metrics: both
// wire protocols (ASCII and binary) map onto the same classes, so the
// metrics endpoint reports one histogram per logical operation
// regardless of which protocol the client spoke.
type OpClass int

// Operation classes, in the order they are exported by the metrics
// endpoint.
const (
	ClassGet    OpClass = iota // get/gets, binary get family
	ClassStore                 // set/add/replace/append/prepend/cas
	ClassDelete                // delete
	ClassArith                 // incr/decr
	ClassTouch                 // touch
	ClassOther                 // stats, flush_all, version, noop, ...
	NumOpClasses
)

// String returns the class's metric-name segment.
func (c OpClass) String() string {
	if c >= 0 && c < ClassOther {
		return [...]string{"get", "store", "delete", "arith", "touch"}[c]
	}
	return "other"
}

// Outcome classifies how a command ended, so latency accounting can
// separate healthy ops from failures.
type Outcome int

// Outcomes, in the order they are exported by the metrics endpoint.
const (
	OutcomeOK    Outcome = iota // executed (includes protocol-level miss/NOT_FOUND)
	OutcomeError                // session-fatal error during execution
	NumOutcomes
)

// String returns the outcome's metric-name segment.
func (o Outcome) String() string {
	if o == OutcomeOK {
		return "ok"
	}
	return "error"
}

// outcomeOf maps what executing a request returned onto an outcome. A
// quit is a command that succeeded. Everything else that ends the
// session is OutcomeError — including a peer that left inside the
// request (its data block or frame body never arrived in full): the
// session then ends cleanly, but that command did not run.
func outcomeOf(err error) Outcome {
	if err == nil || errors.Is(err, ErrQuit) {
		return OutcomeOK
	}
	return OutcomeError
}

// Observer receives the handling time of executed commands (read of
// the value payload through response serialization) as reported by the
// injected clock, with their outcome. One call reports n commands of
// one class and outcome that together took nanos: n is 1 for a request
// served alone, and for a pipelined run of gets or of stores (either
// codec) it is how many the run served, all ending with o, and nanos
// the run's time (DESIGN.md "The session core"). An implementation that keeps
// per-command samples records n of them summing to nanos, as
// metrics.Histogram.RecordN does. The duration is a typed nanosecond
// count (sim.Ns) so it cannot be mixed with the kernel's picosecond
// values without an explicit conversion. Implementations are called
// from the connection's goroutine and must be safe for concurrent use
// across connections.
type Observer interface {
	ObserveOp(c OpClass, o Outcome, n int, nanos sim.Ns)
}

// OpSpan is one sampled operation's phase timeline: parse (command
// line / frame decode and payload read), store-execute (the kvstore
// call and replication), and write (response serialization and flush),
// split at the same two points for every verb of both codecs: parse
// ends when execute starts, execute when it returns. A request that
// never reached execute (refused by its parser) has no phases:
// its span is all write. All timestamps come from the session's
// injected clock. Opaque carries the binary
// protocol's opaque field (0 on ASCII, where no request id crosses
// the wire) — the correlation key that lets a merged trace line a
// client attempt up with the server's handling of that exact request.
// Binary names the codec that served it. A sampled request of a
// pipelined run carries the run's stamps: its Start and End
// are the run's, and so are its parse and execute phases.
type OpSpan struct {
	Start     sim.Ns
	ParseDone sim.Ns
	ExecDone  sim.Ns
	End       sim.Ns
	Opaque    uint64
	Class     OpClass
	Outcome   Outcome
	Binary    bool
}

// SpanObserver receives sampled per-op phase spans. Implementations
// are called from the connection's goroutine and must be safe for
// concurrent use across connections (kvserver's forwards into an
// obs.FlightRecorder ring).
type SpanObserver interface {
	ObserveSpan(sp OpSpan)
}
