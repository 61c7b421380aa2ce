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
	switch c {
	case ClassGet:
		return "get"
	case ClassStore:
		return "store"
	case ClassDelete:
		return "delete"
	case ClassArith:
		return "arith"
	case ClassTouch:
		return "touch"
	default:
		return "other"
	}
}

// Outcome classifies how a command ended, so latency accounting can
// separate healthy ops from failures and — critically — from busy
// sheds, which previously vanished from the histograms entirely.
type Outcome int

// Outcomes, in the order they are exported by the metrics endpoint.
const (
	OutcomeOK    Outcome = iota // executed (includes protocol-level miss/NOT_FOUND)
	OutcomeError                // session-fatal error during execution
	OutcomeBusy                 // shed by the admission gate
	NumOutcomes
)

// String returns the outcome's metric-name segment.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeError:
		return "error"
	default:
		return "busy"
	}
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

// Observer receives one callback per executed command with the
// command's handling time (read of the value payload through response
// serialization) as reported by the injected clock, and the command's
// outcome. The duration is a typed nanosecond count (sim.Ns) so it
// cannot be mixed with the kernel's picosecond values without an
// explicit conversion. Implementations are called from the
// connection's goroutine and must be safe for concurrent use across
// connections.
type Observer interface {
	ObserveOp(c OpClass, o Outcome, nanos sim.Ns)
}

// OpSpan is one sampled operation's phase timeline: parse (command
// line / frame decode and payload read), store-execute (the kvstore
// call), and write (response serialization and flush). All timestamps
// come from the session's injected clock. Opaque carries the binary
// protocol's opaque field (0 on ASCII/UDP, where no request id crosses
// the wire) — the correlation key that lets a merged trace line a
// client attempt up with the server's handling of that exact request.
// Binary names the codec that served it.
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

// classifyVerb maps a raw ASCII verb token onto its class. The string
// conversion happens only inside the switch comparison, which does not
// allocate.
func classifyVerb(verb []byte) OpClass {
	switch string(verb) {
	case "get", "gets":
		return ClassGet
	case "set", "add", "replace", "append", "prepend", "cas":
		return ClassStore
	case "delete":
		return ClassDelete
	case "incr", "decr":
		return ClassArith
	case "touch":
		return ClassTouch
	default:
		return ClassOther
	}
}

// classifyOpcode maps a binary opcode onto its class.
func classifyOpcode(op byte) OpClass {
	switch op {
	case OpGet, OpGetQ, OpGetK, OpGetKQ:
		return ClassGet
	case OpSet, OpSetQ, OpAdd, OpAddQ, OpReplace, OpReplaceQ,
		OpAppend, OpAppendQ, OpPrepend, OpPrependQ:
		return ClassStore
	case OpDelete, OpDeleteQ:
		return ClassDelete
	case OpIncr, OpIncrQ, OpDecr, OpDecrQ:
		return ClassArith
	case OpTouch:
		return ClassTouch
	default:
		return ClassOther
	}
}
