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

	"kv3d/internal/clock"
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
	// IdleTimeout closes connections with no traffic for this long.
	IdleTimeout time.Duration
	// Flight, when set, records sampled per-op phase spans and server
	// lifecycle events into the ring. Timestamps come from the store's
	// clock, which times every op and the drain too, so a store on a
	// fake clock makes the recording deterministic.
	Flight *obs.FlightRecorder[sim.Ns]
	// FlightEvery samples one op in every FlightEvery per session
	// (DefaultFlightEvery when <= 0). 1 traces every op.
	FlightEvery int
	// Repl, when set, receives every successful local write for replica
	// fan-out (usually a *Replicator; the interface keeps tests free to
	// fake it). The server does not own it — the caller Closes it after
	// the server stops.
	Repl protocol.Replicator
}

// Server accepts memcached protocol connections and serves a Store.
type Server struct {
	store *kvstore.Store
	opts  Options
	ln    net.Listener
	log   *log.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	// wg tracks the connection handlers and the short-lived goroutines
	// that write busy refusals to turned-away connections.
	wg       sync.WaitGroup
	accepted atomic.Uint64
	active   atomic.Int64
	// metricsWriteErrors counts /metrics responses that failed mid-write
	// (client gone, connection reset): the scrape was truncated.
	metricsWriteErrors atomic.Uint64

	ops *OpMetrics
	// env is what every session of this server runs with, whichever
	// codec it speaks: built once at construction, Repl replaced by
	// SetReplicator, read when a connection arrives.
	env protocol.Env // guarded by mu
	// flight is nil unless Options.Flight was set, and its lifecycle
	// methods are nil-safe; its own fields are immutable after
	// construction and every recorder call is internally synchronized.
	flight *serverFlight
}

// New creates a server for the given store. logger may be nil to
// silence per-connection errors.
func New(store *kvstore.Store, logger *log.Logger) *Server {
	return NewWithOptions(store, logger, Options{})
}

// NewWithOptions creates a server with explicit limits.
func NewWithOptions(store *kvstore.Store, logger *log.Logger, opts Options) *Server {
	s := &Server{
		store: store,
		log:   logger,
		opts:  opts,
		conns: make(map[net.Conn]struct{}),
		ops:   NewOpMetrics(),
	}
	s.env = protocol.Env{Observer: s.ops, Clock: store.Clock(), Repl: opts.Repl}
	if opts.Flight != nil {
		s.flight = newServerFlight(opts.Flight, store.Clock(), opts.FlightEvery)
		s.env.Flight, s.env.FlightEvery = &s.flight.sessions, s.flight.every
	}
	return s
}

// Flight exposes the server's recorder (nil when recording is off) so
// tools can dump or merge its trace.
func (s *Server) Flight() *obs.FlightRecorder[sim.Ns] {
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
// arrives, so call it before Serve.
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
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.mu.Unlock()
			s.rejectConn(conn)
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
func (s *Server) rejectConn(conn net.Conn) {
	s.ops.rejected.Add(1)
	s.flight.lifecycle("reject.max_conns")
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		conn.SetWriteDeadline(clock.Deadline(time.Second)) // best-effort farewell: a failed deadline arm just makes the write fail instead
		io.WriteString(conn, "SERVER_ERROR busy\r\n")      // best-effort farewell to a refused client; nothing to do if it fails
		conn.Close()                                       // the refusal is complete; the close error of a turned-away conn carries no signal
	}()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	env := s.sessionEnv()
	s.flight.conns("conn.open", s.active.Load())
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.flight.conns("conn.close", s.active.Add(-1))
	}()
	err := protocol.ServeConnIdle(s.store, conn, env, s.opts.IdleTimeout)
	if err != nil && s.log != nil && !s.closedByClose(err) {
		s.log.Printf("kvserver: connection %s: %v", conn.RemoteAddr(), err)
	}
}

// closedByClose reports whether err is a connection's session ending
// because the server's own Close closed it: that is shutdown, not a
// fault worth a log line.
func (s *Server) closedByClose(err error) bool {
	if !errors.Is(err, net.ErrClosed) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
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
	s.mu.Unlock()
	s.flight.lifecycle("server.close")
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Accepted reports the total number of accepted connections.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// Active reports currently open connections.
func (s *Server) Active() int64 { return s.active.Load() }
