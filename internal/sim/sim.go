// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is modeled in integer picoseconds so that component models (CPU
// cycles at GHz frequencies, DRAM latencies in nanoseconds, Flash
// latencies in microseconds and 10GbE wire times) compose without
// floating-point drift. A Simulator owns a monotonically increasing
// clock and a priority queue of events; everything in the kv3d model
// layer (cores, memory ports, NICs, clients) runs on top of it.
//
// The kernel is intentionally single-threaded: determinism matters more
// than host parallelism for reproducing the paper's tables, and the
// models themselves are cheap.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a simulation timestamp in picoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros converts a duration to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Nanos converts a duration to floating-point nanoseconds.
func (d Duration) Nanos() float64 { return float64(d) / float64(Nanosecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", d.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// FromSeconds builds a Duration from floating-point seconds, saturating
// instead of overflowing.
func FromSeconds(s float64) Duration {
	ps := s * float64(Second)
	if ps >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	if ps <= 0 {
		return 0
	}
	return Duration(ps + 0.5)
}

// Add offsets a Time by a Duration, saturating at MaxTime.
func (t Time) Add(d Duration) Time {
	if int64(t) > int64(MaxTime)-int64(d) {
		return MaxTime
	}
	return t + Time(d)
}

// Sub returns the Duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a scheduled callback.
type event struct {
	when Time
	seq  uint64 // tie-break so same-time events run in schedule order
	fn   func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
}
func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Simulator owns the clock and the pending event queue.
type Simulator struct {
	now      Time
	queue    eventQueue
	seq      uint64
	dispatch DispatchHook
}

// DispatchHook observes event dispatch: it runs after each event
// executes, with the event's timestamp. Observability code (the obs
// package) uses it to count dispatched events; it must not schedule
// events, only observe.
type DispatchHook func(now Time)

// SetDispatchHook installs (or, with nil, removes) the dispatch hook.
// The disabled path costs one nil-check per event.
func (s *Simulator) SetDispatchHook(h DispatchHook) { s.dispatch = h }

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past
// (before Now) panics: it is always a model bug.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, s.now))
	}
	ev := &event{when: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// Step executes the single next event, if any, and reports whether one
// ran. It is the kernel's event-dispatch hot path: every simulated
// event in every experiment funnels through here.
//
//kv3d:hotpath
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.when
	ev.fn()
	if s.dispatch != nil {
		s.dispatch(ev.when)
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline. The clock is
// advanced to the deadline even if the queue drains earlier.
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].when <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
