// Package faults is the deterministic fault-plan engine. A plan is a
// reproducible schedule of fault events — connection resets, read/write
// stalls, latency windows, node down/up, stack fail/degrade/recover —
// generated from a seed, so every chaos run is replayable: the same seed
// yields a byte-identical schedule.
//
// The package is deliberately pure: it imports only the sim kernel and
// the stdlib, and holds no clocks, sockets, or goroutines; kv3d-lint
// holds it to the determinism contract as one of its simulation roots,
// so a seeded plan stays replayable. The live-side machinery that
// applies a plan to real connections lives in the faultnet subpackage.
//
// Time inside a plan is a sim.Duration offset from the plan's start.
// A simulated consumer interprets offsets on its own synthetic time
// axis; the live driver (faultnet.Driver) replays them 1:1 against the
// wall clock.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"kv3d/internal/sim"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// ConnReset injects one connection reset on the target's live
	// connections at the event time.
	ConnReset Kind = iota
	// ReadStall freezes reads on the target's connections for For.
	ReadStall
	// WriteStall freezes writes on the target's connections for For.
	WriteStall
	// Latency delays every I/O operation on the target by Arg
	// nanoseconds for a window of For.
	Latency
	// NodeDown takes a live node offline (listener refuses, open
	// connections reset) until the paired NodeUp.
	NodeDown
	// NodeUp revives a node taken down by NodeDown.
	NodeUp
	// StackFail removes a simulated stack from the routing ring until
	// the paired StackRecover (sim-side twin of NodeDown).
	StackFail
	// StackDegrade reduces a simulated stack's capacity to Arg percent.
	StackDegrade
	// StackRecover restores a failed or degraded stack to full health.
	StackRecover
	// NodeJoin adds the target to the cluster membership at the event
	// time — a scale-out or rejoin event. The consumer (a live
	// harness's Membership) decides what joining means.
	NodeJoin
	// NodeLeave removes the target from the cluster membership — a
	// graceful departure, which unlike NodeDown is supposed to come
	// with key-range handoff.
	NodeLeave
	// Partition makes the target unreachable for For: new connections
	// are refused and established ones stall, but nothing is reset —
	// the node is healthy, the network is not. Distinguishable from
	// NodeDown precisely because acknowledged state survives it.
	Partition

	numKinds
)

var kindNames = [numKinds]string{
	ConnReset:    "conn-reset",
	ReadStall:    "read-stall",
	WriteStall:   "write-stall",
	Latency:      "latency",
	NodeDown:     "node-down",
	NodeUp:       "node-up",
	StackFail:    "stack-fail",
	StackDegrade: "stack-degrade",
	StackRecover: "stack-recover",
	NodeJoin:     "node-join",
	NodeLeave:    "node-leave",
	Partition:    "partition",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q", s)
}

// Event is one scheduled fault.
type Event struct {
	// At is the offset from plan start.
	At sim.Duration
	// Kind selects the fault.
	Kind Kind
	// Target names the afflicted node or stack ("stack-03", a host:port
	// address, ...). Targets must not contain whitespace.
	Target string
	// For is the window length for windowed kinds (stalls, latency,
	// partition); zero for instantaneous state changes.
	For sim.Duration
	// Arg carries a kind-specific parameter: injected delay in
	// nanoseconds for Latency, surviving capacity in percent for
	// StackDegrade. Zero otherwise.
	Arg int64
}

// Plan is a reproducible fault schedule: events sorted by At (ties keep
// generation order).
type Plan struct {
	// Seed is the seed the plan was generated from (zero for
	// hand-built plans).
	Seed uint64
	// Horizon is the schedule's nominal length; events never start
	// after it.
	Horizon sim.Duration
	// Events is the schedule, sorted by At.
	Events []Event
}

// encodeMagic is the first line of the wire form. The encoder is
// hand-written and fully deterministic — a plan's byte encoding is a
// pure function of its contents, which is what the golden tests pin.
const encodeMagic = "kv3d-fault-plan v1"

// Encode renders the plan in its canonical text form: one event per
// line, every field explicit, durations as integer picoseconds (the sim
// kernel's exact base unit, so the round trip is lossless).
//
//	kv3d-fault-plan v1
//	seed 42
//	horizon 800000000000
//	event 12000000000 node-down stack-01 0 0
func (p *Plan) Encode() []byte {
	var b []byte
	b = append(b, encodeMagic...)
	b = append(b, '\n')
	b = append(b, "seed "...)
	b = strconv.AppendUint(b, p.Seed, 10)
	b = append(b, '\n')
	b = append(b, "horizon "...)
	b = strconv.AppendInt(b, int64(p.Horizon), 10)
	b = append(b, '\n')
	for _, ev := range p.Events {
		b = append(b, "event "...)
		b = strconv.AppendInt(b, int64(ev.At), 10)
		b = append(b, ' ')
		b = append(b, ev.Kind.String()...)
		b = append(b, ' ')
		b = append(b, ev.Target...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(ev.For), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, ev.Arg, 10)
		b = append(b, '\n')
	}
	return b
}

// String renders the canonical encoding.
func (p *Plan) String() string { return string(p.Encode()) }

// Parse decodes a plan from its canonical encoding.
func Parse(data []byte) (*Plan, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("faults: truncated plan (%d lines)", len(lines))
	}
	if lines[0] != encodeMagic {
		return nil, fmt.Errorf("faults: bad magic %q", lines[0])
	}
	p := &Plan{}
	seed, ok := strings.CutPrefix(lines[1], "seed ")
	if !ok {
		return nil, fmt.Errorf("faults: expected seed line, got %q", lines[1])
	}
	var err error
	if p.Seed, err = strconv.ParseUint(seed, 10, 64); err != nil {
		return nil, fmt.Errorf("faults: bad seed: %v", err)
	}
	horizon, ok := strings.CutPrefix(lines[2], "horizon ")
	if !ok {
		return nil, fmt.Errorf("faults: expected horizon line, got %q", lines[2])
	}
	h, err := strconv.ParseInt(horizon, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faults: bad horizon: %v", err)
	}
	p.Horizon = sim.Duration(h)
	for _, line := range lines[3:] {
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[0] != "event" {
			return nil, fmt.Errorf("faults: bad event line %q", line)
		}
		at, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad event time %q", fields[1])
		}
		kind, err := ParseKind(fields[2])
		if err != nil {
			return nil, err
		}
		dur, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad event window %q", fields[4])
		}
		arg, err := strconv.ParseInt(fields[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad event arg %q", fields[5])
		}
		p.Events = append(p.Events, Event{
			At: sim.Duration(at), Kind: kind, Target: fields[3],
			For: sim.Duration(dur), Arg: arg,
		})
	}
	return p, nil
}

// sortEvents orders events by time, preserving generation order on
// ties, so a plan's schedule (and therefore its encoding) is unique.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}

// Schedule is a cursor over a plan's events for consumers that advance
// along a synthetic time axis. It does not mutate the plan.
type Schedule struct {
	events []Event
	next   int
}

// Schedule returns a fresh cursor over the plan's events in time order.
func (p *Plan) Schedule() *Schedule {
	events := make([]Event, len(p.Events))
	copy(events, p.Events)
	sortEvents(events)
	return &Schedule{events: events}
}

// Due returns the events with At <= now that have not been returned
// yet, advancing the cursor past them. The returned slice aliases the
// schedule's storage and is valid until the schedule is discarded.
func (s *Schedule) Due(now sim.Duration) []Event {
	start := s.next
	for s.next < len(s.events) && s.events[s.next].At <= now {
		s.next++
	}
	return s.events[start:s.next]
}

// Remaining reports how many events the cursor has not yet delivered.
func (s *Schedule) Remaining() int { return len(s.events) - s.next }
