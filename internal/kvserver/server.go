// Package kvserver runs a memcached-compatible TCP server on top of
// kvstore and protocol. One goroutine per connection, graceful shutdown,
// connection accounting.
package kvserver

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// Options tune server-level limits. The zero value means unlimited.
type Options struct {
	// MaxConns caps simultaneous connections; further accepts receive a
	// busy line and are closed promptly (memcached's -c, except the
	// refusal is explicit rather than a silent close).
	MaxConns int
	// MaxInflight caps concurrently executing requests across all
	// connections. Excess commands are answered "SERVER_ERROR busy"
	// (StatusBusy on the binary protocol) instead of queueing without
	// bound — the server sheds load rather than silently degrading.
	MaxInflight int
	// IdleTimeout closes connections with no traffic for this long.
	IdleTimeout time.Duration
	// NowNanos is the clock used to time per-op latency, as a typed
	// nanosecond count. Nil selects the wall clock; tests inject a
	// fake to get deterministic histograms.
	NowNanos func() sim.Ns
	// Flight, when set, records sampled per-op phase spans and server
	// lifecycle events into the ring. Timestamps come from NowNanos, so
	// a fake clock makes the recording deterministic.
	Flight *obs.FlightRecorder
	// FlightEvery samples one op in every FlightEvery per session
	// (DefaultFlightEvery when <= 0). 1 traces every op.
	FlightEvery int
	// Repl, when set, receives every successful local write for replica
	// fan-out (usually a *Replicator; the interface keeps tests free to
	// fake it). The server does not own it — the caller Closes it after
	// the server stops.
	Repl protocol.Replicator
	// Migrator, when set, contributes live.migrate.* counters to the
	// server's probes. Like Repl it is caller-owned: the caller Closes
	// it after the server stops.
	Migrator *Migrator
}

// Server accepts memcached protocol connections and serves a Store.
type Server struct {
	store *kvstore.Store
	opts  Options
	ln    net.Listener
	log   *log.Logger

	mu       sync.Mutex
	conns    map[net.Conn]struct{} //kv3d:guardedby mu
	closed   bool                  //kv3d:guardedby mu
	draining bool                  //kv3d:guardedby mu

	wg sync.WaitGroup
	// rejectWg tracks the short-lived goroutines that write busy
	// refusals to turned-away connections — separate from wg so the
	// drain in Shutdown waits only on real handlers.
	rejectWg sync.WaitGroup
	accepted atomic.Uint64
	rejected atomic.Uint64
	active   atomic.Int64
	// metricsWriteErrors counts /metrics responses that failed mid-write
	// (client gone, connection reset): the scrape was truncated.
	metricsWriteErrors atomic.Uint64

	ops      *OpMetrics
	nowNanos func() sim.Ns
	// env is what every session of this server runs with, whichever
	// transport carries it: built once at construction, Repl replaced
	// by SetReplicator, read when a connection or datagram arrives.
	env protocol.Env //kv3d:guardedby mu
	// flight is nil unless Options.Flight was set; its own fields are
	// immutable after construction and every recorder call is
	// internally synchronized.
	flight *serverFlight
	// telemetry is nil until StartTelemetry; guarded by mu.
	telemetry *Telemetry //kv3d:guardedby mu
}

// inflightGate is a non-blocking semaphore capping concurrently
// executing requests; it implements protocol.Gate and counts its own
// refusals.
type inflightGate struct {
	sem chan struct{}
	ops *OpMetrics
}

func newInflightGate(n int, ops *OpMetrics) *inflightGate {
	return &inflightGate{sem: make(chan struct{}, n), ops: ops}
}

func (g *inflightGate) TryAcquire() bool {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		g.ops.Reject(RejectBusy)
		return false
	}
}

func (g *inflightGate) Release() { <-g.sem }

// New creates a server for the given store. logger may be nil to
// silence per-connection errors.
func New(store *kvstore.Store, logger *log.Logger) *Server {
	return NewWithOptions(store, logger, Options{})
}

// NewWithOptions creates a server with explicit limits.
func NewWithOptions(store *kvstore.Store, logger *log.Logger, opts Options) *Server {
	now := opts.NowNanos
	if now == nil {
		// Wall time at construction plus the monotonic time since: one
		// clock read per call where time.Now takes two.
		base := time.Now()
		baseNanos := base.UnixNano()
		now = func() sim.Ns { return sim.Ns(baseNanos + int64(time.Since(base))) }
	}
	s := &Server{
		store:    store,
		log:      logger,
		opts:     opts,
		conns:    make(map[net.Conn]struct{}),
		ops:      NewOpMetrics(),
		nowNanos: now,
	}
	s.env = protocol.Env{Observer: s.ops, NowNanos: now, Repl: opts.Repl}
	if opts.MaxInflight > 0 {
		s.env.Gate = newInflightGate(opts.MaxInflight, s.ops)
	}
	if opts.Flight != nil {
		s.flight = newServerFlight(opts.Flight, opts.FlightEvery)
		s.env.Flight, s.env.FlightEvery = &s.flight.streams, s.flight.every
	}
	return s
}

// Flight exposes the server's recorder (nil when recording is off) so
// tools can dump or merge its trace.
func (s *Server) Flight() *obs.FlightRecorder {
	if s.flight == nil {
		return nil
	}
	return s.flight.rec
}

// Listen binds the address (e.g. "127.0.0.1:11211"). Use port :0 for an
// ephemeral port; Addr reports the bound address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// SetReplicator installs the replica fan-out hook after construction.
// It exists for a wiring-order reason: a Replicator's Self is the
// node's serving address, which an ephemeral-port server only knows
// after Listen — so the caller listens, builds the Replicator from
// Addr, then installs it. Sessions read the hook when their connection
// or datagram arrives, so call it before Serve and before the first UDP
// request, in either order with Listen and ListenUDP.
func (s *Server) SetReplicator(r protocol.Replicator) {
	s.mu.Lock()
	s.env.Repl = r
	s.mu.Unlock()
}

// sessionEnv is the env a session starting now runs with.
func (s *Server) sessionEnv() protocol.Env {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.env
}

// SetMigrator attaches a caller-owned Migrator so its live.migrate.*
// counters surface through Probes, under the same call-before-Serve
// contract as SetReplicator.
func (s *Server) SetMigrator(m *Migrator) { s.opts.Migrator = m }

// Addr returns the listener address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("kvserver: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.draining {
			s.mu.Unlock()
			s.rejectConn(conn, RejectDraining)
			continue
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.mu.Unlock()
			s.rejectConn(conn, RejectMaxConns)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		go s.handle(conn)
	}
}

// ServeOn serves on a caller-provided listener instead of one bound by
// Listen — harnesses wrap a listener (e.g. with fault injection) and
// hand it over.
func (s *Server) ServeOn(ln net.Listener) error {
	s.ln = ln
	return s.Serve()
}

// rejectConn refuses a just-accepted connection with an explicit busy
// line so the client fails fast instead of diagnosing a silent close.
// The write runs in its own goroutine under a deadline, so a stalled
// peer can neither pin the accept loop nor leak the goroutine.
func (s *Server) rejectConn(conn net.Conn, reason RejectReason) {
	s.rejected.Add(1)
	s.ops.Reject(reason)
	if s.flight != nil {
		s.flight.reject(reason, s.nowNanos())
	}
	s.rejectWg.Add(1)
	go func() {
		defer s.rejectWg.Done()
		conn.SetWriteDeadline(time.Now().Add(time.Second)) //nolint:kv3d -- best-effort farewell: a failed deadline arm just makes the write fail instead
		io.WriteString(conn, "SERVER_ERROR busy\r\n")      //nolint:kv3d -- best-effort farewell to a refused client; nothing to do if it fails
		conn.Close()                                       //nolint:kv3d -- the refusal is complete; the close error of a turned-away conn carries no signal
	}()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	if s.flight != nil {
		ts := s.nowNanos()
		s.flight.connOpen(ts)
		s.flight.activeConns(ts, s.active.Load())
	}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		n := s.active.Add(-1)
		if s.flight != nil {
			ts := s.nowNanos()
			s.flight.connClose(ts)
			s.flight.activeConns(ts, n)
		}
	}()
	var rw io.ReadWriter = conn
	if s.opts.IdleTimeout > 0 {
		rw = &deadlineRW{conn: conn, timeout: s.opts.IdleTimeout}
	}
	err := protocol.ServeConn(s.store, rw, s.sessionEnv())
	if err != nil && s.log != nil {
		s.log.Printf("kvserver: connection %s: %v", conn.RemoteAddr(), err)
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	tel := s.telemetry
	s.telemetry = nil
	s.mu.Unlock()
	if s.flight != nil {
		s.flight.serverClose(s.nowNanos())
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	s.rejectWg.Wait()
	tel.Stop()
	return err
}

// Shutdown drains gracefully: new connections are refused with a busy
// line while established ones keep being served, for up to timeout;
// whatever remains is then closed. It returns nil if the drain emptied
// the server before the deadline.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	if s.flight != nil {
		s.flight.drainBegin(s.nowNanos())
	}
	// wg.Add for handlers happens under mu before draining was set, so
	// this waiter cannot race a late registration.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-time.After(timeout):
		err = errors.New("kvserver: drain deadline exceeded")
	}
	if s.flight != nil {
		s.flight.drainEnd(s.nowNanos())
	}
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// deadlineRW arms an idle deadline before every read and write so a
// silent connection eventually errors out and closes.
type deadlineRW struct {
	conn    net.Conn
	timeout time.Duration
}

func (d *deadlineRW) Read(p []byte) (int, error) {
	if err := d.conn.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.conn.Read(p)
}

func (d *deadlineRW) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}

// Accepted reports the total number of accepted connections.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// Rejected reports connections refused by the MaxConns limit.
func (s *Server) Rejected() uint64 { return s.rejected.Load() }

// Active reports currently open connections.
func (s *Server) Active() int64 { return s.active.Load() }

// Store exposes the underlying store (for stats in tools).
func (s *Server) Store() *kvstore.Store { return s.store }
