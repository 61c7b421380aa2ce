// Package faultnet applies a faults.Plan to live network traffic: an
// Injector holds per-target fault state, Conn/Listener wrappers consult
// it on every I/O operation, and a Driver replays a plan's schedule
// against the wall clock. The plan itself (and hence the schedule of
// injections) is deterministic; only the interleaving with real traffic
// is not, which is exactly the split the chaos suite needs — a
// replayable fault schedule against a live server.
//
// This package is live-side only: it must never be imported by a
// simulation package (kv3d-lint's determinism check would rightly
// reject its clocks and sleeps). The pure plan engine lives in the
// parent faults package.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"kv3d/internal/faults"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

// ErrInjected is returned (wrapped) by all injected failures, so tests
// and retry loops can tell a planned fault from a real one.
var ErrInjected = errors.New("faultnet: injected fault")

// ErrReset is the injected connection-reset error.
var ErrReset = &net.OpError{Op: "read", Net: "tcp", Err: ErrInjected}

// GoDuration converts a plan offset/window into wall-clock time: plans
// replay 1:1 (one simulated millisecond is one real millisecond).
func GoDuration(d sim.Duration) time.Duration {
	return time.Duration(d.Ns())
}

// state is one target's live fault state. Windowed faults store their
// end instant; instantaneous ones are flags/counters.
type state struct {
	down            bool
	partitionUntil  time.Time
	resetPending    int
	latency         time.Duration
	latencyUntil    time.Time
	readStallUntil  time.Time
	writeStallUntil time.Time
	conns           map[*faultConn]struct{}
}

// Injector is the shared live fault state. Wrappers are cheap when no
// fault is armed for their target: one mutex acquisition and a few
// comparisons per I/O call, no allocation.
type Injector struct {
	mu      sync.Mutex
	targets map[string]*state //kv3d:guardedby mu
	probes  *obs.Registry     //kv3d:guardedby mu
}

// New returns an empty injector: all targets healthy.
func New() *Injector {
	return &Injector{targets: map[string]*state{}}
}

// SetProbes installs a registry receiving "faultnet.injected.<kind>"
// counters (one per applied plan event) plus effect-site counters:
// "faultnet.reset_conns" and "faultnet.refused_conns". Call before
// traffic starts.
func (in *Injector) SetProbes(r *obs.Registry) {
	in.mu.Lock()
	in.probes = r
	in.mu.Unlock()
}

func (in *Injector) count(name string) {
	in.mu.Lock()
	r := in.probes
	in.mu.Unlock()
	if r != nil {
		r.Counter(name).Add(1)
	}
}

func (in *Injector) target(name string) *state {
	st, ok := in.targets[name]
	if !ok {
		st = &state{conns: map[*faultConn]struct{}{}}
		in.targets[name] = st
	}
	return st
}

// Apply transitions the injector's state for one plan event, effective
// immediately (the Driver owns the timing). NodeDown also resets every
// live wrapped connection of the target, the way a crashed process
// would.
func (in *Injector) Apply(ev faults.Event) {
	now := time.Now()
	window := GoDuration(ev.For)
	in.mu.Lock()
	st := in.target(ev.Target)
	var toClose []*faultConn
	switch ev.Kind {
	case faults.NodeDown, faults.StackFail:
		st.down = true
		for c := range st.conns {
			toClose = append(toClose, c)
		}
	case faults.NodeUp, faults.StackRecover:
		st.down = false
	case faults.ConnReset:
		st.resetPending++
	case faults.Latency:
		st.latency = time.Duration(ev.Arg)
		st.latencyUntil = now.Add(window)
	case faults.ReadStall:
		st.readStallUntil = now.Add(window)
	case faults.WriteStall:
		st.writeStallUntil = now.Add(window)
	case faults.Partition:
		// Unreachable, not dead: new connections are refused and
		// established ones stall until the window closes, but nothing is
		// reset — acknowledged state on the node survives.
		end := now.Add(window)
		st.partitionUntil = end
		if end.After(st.readStallUntil) {
			st.readStallUntil = end
		}
		if end.After(st.writeStallUntil) {
			st.writeStallUntil = end
		}
	case faults.NodeJoin, faults.NodeLeave:
		// Membership transitions are cluster-level, not socket-level:
		// the harness driving the plan applies them to its Membership.
		// The injector only counts them so chaos runs can assert the
		// schedule was delivered.
	}
	in.mu.Unlock()
	in.count("faultnet.injected." + ev.Kind.String())
	for _, c := range toClose {
		c.Close() // injected kill: the close error of a connection being torn down on purpose carries no signal
	}
}

// SetDown flips a target's down state directly (for tests and harnesses
// that do not run a full plan).
func (in *Injector) SetDown(target string, down bool) {
	in.Apply(faults.Event{Kind: faults.NodeDown, Target: target})
	if !down {
		in.Apply(faults.Event{Kind: faults.NodeUp, Target: target})
	}
}

// IsDown reports whether the target is currently down.
func (in *Injector) IsDown(target string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.target(target).down
}

// unreachable reports whether the target should refuse new connections:
// down, or inside a partition window.
func (in *Injector) unreachable(target string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.target(target)
	return st.down || st.partitionUntil.After(time.Now())
}

// decide computes what to do to one I/O op: how long to delay, and
// whether to reset instead of proceeding.
func (in *Injector) decide(target string, read bool) (delay time.Duration, reset bool) {
	now := time.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.target(target)
	if st.down {
		return 0, true
	}
	if st.resetPending > 0 {
		st.resetPending--
		return 0, true
	}
	var until time.Time
	if read {
		until = st.readStallUntil
	} else {
		until = st.writeStallUntil
	}
	if until.After(now) {
		delay = until.Sub(now)
	}
	if st.latencyUntil.After(now) && st.latency > delay {
		delay = st.latency
	}
	return delay, false
}

// Conn wraps a live connection so the injector can reset, stall, and
// delay it. A nil Injector returns c unchanged, so installing fault
// hooks costs nothing when no plan is armed.
func (in *Injector) Conn(target string, c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	fc := &faultConn{Conn: c, inj: in, target: target}
	in.mu.Lock()
	in.target(target).conns[fc] = struct{}{}
	in.mu.Unlock()
	return fc
}

type faultConn struct {
	net.Conn
	inj    *Injector
	target string
	closed sync.Once
}

// apply runs the injector's decision before an I/O op: sleep for
// injected latency/stalls, or reset the connection.
func (c *faultConn) apply(read bool) error {
	delay, reset := c.inj.decide(c.target, read)
	if reset {
		c.Close() // the reset is the point; the peer observes the close, not its error
		c.inj.count("faultnet.reset_conns")
		return ErrReset
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	if err := c.apply(true); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if err := c.apply(false); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	var err error
	c.closed.Do(func() {
		c.inj.mu.Lock()
		delete(c.inj.target(c.target).conns, c)
		c.inj.mu.Unlock()
		err = c.Conn.Close()
	})
	return err
}

// Listener wraps a live listener: while the target is down, accepted
// connections are closed immediately (the peer sees a refused/reset
// connection, as with a dead process whose port is still bound), and
// admitted connections are wrapped with Conn. A nil Injector returns
// ln unchanged.
func (in *Injector) Listener(target string, ln net.Listener) net.Listener {
	if in == nil {
		return ln
	}
	return &faultListener{Listener: ln, inj: in, target: target}
}

type faultListener struct {
	net.Listener
	inj    *Injector
	target string
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.inj.unreachable(l.target) {
			c.Close() // refusing a connection to a down or partitioned node; its close error is noise
			l.inj.count("faultnet.refused_conns")
			continue
		}
		return l.inj.Conn(l.target, c), nil
	}
}

// Driver replays a plan's schedule in real time, calling apply for each
// event at its offset from Start. Use Injector.Apply as the callback,
// or a custom one (the chaos harness kills and revives servers).
type Driver struct {
	plan  *faults.Plan
	apply func(faults.Event)
	stop  chan struct{}
	done  chan struct{}
}

// NewDriver builds a driver; Start launches it.
func NewDriver(p *faults.Plan, apply func(faults.Event)) *Driver {
	return &Driver{
		plan:  p,
		apply: apply,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start begins replaying the plan against the wall clock.
func (d *Driver) Start() {
	// Due(MaxDuration) drains the whole sorted schedule up front; the
	// driver then owns the pacing.
	events := d.plan.Schedule().Due(sim.Duration(1<<63 - 1))
	start := time.Now()
	go func() {
		defer close(d.done)
		for _, ev := range events {
			wait := GoDuration(ev.At) - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-d.stop:
					return
				}
			}
			select {
			case <-d.stop:
				return
			default:
			}
			d.apply(ev)
		}
	}()
}

// Wait blocks until every event has been applied (or Stop was called).
func (d *Driver) Wait() { <-d.done }

// Stop aborts the replay and waits for the driver goroutine to exit.
func (d *Driver) Stop() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
}
