package protocol

// The session core: what the ASCII and binary sessions share. A session
// is a codec (Session, BinarySession) around one core; the core owns the
// buffered pair, the injected dependencies, the Serve loop and the one
// per-request envelope, and calls back into the codec for everything
// that depends on the wire format. DESIGN.md "The session core" has the
// envelope as a numbered sequence.

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvstore"
	"kv3d/internal/sim"
)

// Gate admits requests under a server-wide in-flight cap. TryAcquire
// is called once a request's head has been read; if it refuses, the
// session answers busy instead of executing, and Release is not called.
// The implementation must be safe for concurrent use from all connection
// goroutines (kvserver's is a buffered-channel semaphore).
type Gate interface {
	// TryAcquire claims an execution slot without blocking.
	TryAcquire() bool
	// Release returns a slot claimed by TryAcquire.
	Release()
}

// Env is everything a session depends on besides its store and its
// transport, fixed when the session is built. The zero value is a bare
// session: unlimited admission, nothing observed, every write local.
type Env struct {
	// Gate is the in-flight admission gate; nil means unlimited.
	Gate Gate
	// Observer receives one callback per command, timed by Clock (a
	// server's is its store's). Commands are observed only when both
	// are set.
	Observer Observer
	Clock    clock.Clock
	// Flight receives a phase-split OpSpan for one command in every
	// FlightEvery (minimum 1). Spans are stamped with Clock, so Flight
	// does nothing unless commands are observed.
	Flight      SpanObserver
	FlightEvery int
	// Repl receives each successful local set/add/replace/cas, delete,
	// touch and flush for replica fan-out; nil means every write is
	// local. Append/prepend and incr/decr stay local-only: their deltas
	// are not idempotent, so propagating them as sets would race
	// concurrent mutations (ROBUSTNESS.md, replication chapter).
	Repl Replicator
}

// codec is what a wire format supplies to the core's envelope. The
// calls for one run come in the order next, then run and exec or shed,
// then tag for each request the run served; a codec keeps the requests
// it is serving in its own fields.
type codec interface {
	// next reads one request up to the point its op clock starts: the
	// wait for a request to arrive is not part of handling it. An error
	// ends the session with nothing observed.
	next() error
	// run reports how many requests the envelope serves as one run:
	// the one next read, and for a binary get on a session that owns
	// its transport also the complete get frames already buffered
	// behind it (at most maxRun in all). It reads nothing.
	run() int
	// tag reports the class and the correlation key of request i of
	// the run. Every request of a run has the same class.
	tag(i int) (OpClass, uint64)
	// exec reads the rest of the run's n requests, runs them in order
	// and stages their replies. It returns how many it served: n,
	// unless an error ended the session at the last one it returns.
	exec(n int) (int, error)
	// shed reads the rest of the one request next read, so the stream
	// stays in step, and stages a busy refusal in place of running it.
	shed() error
}

// maxRun bounds a run, and with it the scratch a binary session holds
// for one: 32 frames, each value under pinThreshold copied into it.
const maxRun = 32

// core is the codec-independent half of a session.
type core struct {
	store *kvstore.Store
	r     *bufio.Reader
	w     *bufio.Writer
	env   Env
	// timed is env.Observer and env.Clock both set, decided once.
	timed bool
	// transport and lastEnd let a pipelined request skip its start
	// stamp: when the transport was not read since the previous request
	// ended, nothing was waited for and that request's end is this
	// one's start. Set by serveConn only, which builds the pair itself;
	// a session on a caller's pair cannot see the caller's reads and
	// stamps every start.
	transport *flushBeforeRead
	lastEnd   sim.Ns
	// binary names the codec on sampled spans.
	binary bool

	// One copy per side: a GET hit whose value is at least pinFrom
	// bytes is pinned in the store and written from its chunk straight
	// to conn, the raw transport, by sendPinned; a get's copies stop
	// short of pinFrom bytes. serveConn sets both; a session on a
	// caller's pair has no transport to write to, and its pinFrom of
	// MaxInt keeps every value on the copy path.
	// iov and iovArr are the vectored write's list and its backing array.
	conn    io.Writer
	pinFrom int
	iov     net.Buffers
	iovArr  [3][]byte

	// Sampled flight tracing: every flightEvery-th command gets a span.
	// sampled (bit i: request i of the run) and the t* stamps are
	// per-run scratch, valid only inside serveOne.
	flightEvery uint64
	flightSeq   uint64
	sampled     uint32
	tParse      sim.Ns
	tExec       sim.Ns
}

func newCore(store *kvstore.Store, r *bufio.Reader, w *bufio.Writer, env Env) core {
	c := core{store: store, r: r, w: w, env: env, pinFrom: math.MaxInt}
	c.timed = env.Observer != nil && env.Clock != nil
	if !c.timed {
		c.env.Flight = nil
	}
	c.flightEvery = uint64(max(env.FlightEvery, 1))
	return c
}

// NewBufferedPair builds the buffered reader and writer every session
// runs on, and with them the one flush policy of both codecs: responses
// are staged in the writer and written out when the session is about to
// read from the transport — that is, when it has consumed all the input
// it was given and would otherwise sleep. A pipelined burst therefore
// costs one write per read instead of one per op, and a client that
// withholds the rest of a request still gets every earlier reply first,
// because no session can block in a read with output pending. Sessions never flush at reply sites; Serve flushes on exit.
func NewBufferedPair(rw io.ReadWriter) (*bufio.Reader, *bufio.Writer) {
	r, w, _ := newBufferedPair(rw)
	return r, w
}

func newBufferedPair(rw io.ReadWriter) (*bufio.Reader, *bufio.Writer, *flushBeforeRead) {
	w := bufio.NewWriterSize(rw, 64<<10)
	f := &flushBeforeRead{r: rw, w: w}
	return bufio.NewReaderSize(f, 64<<10), w, f
}

// flushBeforeRead is the transport half of NewBufferedPair's reader.
type flushBeforeRead struct {
	r io.Reader
	w *bufio.Writer
	// read is set by every transport read and cleared by the core when
	// a request ends.
	read bool
	// idle, when set, times the connection out after that much silence:
	// each transport read first moves its deadline to idle from now.
	idle time.Duration
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	f.read = true
	if f.idle > 0 {
		if err := f.r.(net.Conn).SetDeadline(clock.Deadline(f.idle)); err != nil {
			return 0, err
		}
	}
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// pinThreshold is the shortest value a GET served by ServeConnIdle sends
// from its chunk instead of copying. Below it pinning saves nothing
// measurable (BenchmarkLargeGet), while a copied reply still shares one
// write with the other replies of a pipelined burst.
const pinThreshold = 16 << 10

// ServeConnIdle serves one connection until its peer leaves, choosing
// the codec from the first byte: MagicRequest selects the binary
// protocol, anything else the ASCII protocol — memcached's
// auto-negotiation. A connection that ends before its first byte was
// never a session and returns nil. The connection times out after idle
// without traffic (0 = never), armed on conn itself: the session still
// writes to net's own type, so a pinned GET stays one writev.
func ServeConnIdle(store *kvstore.Store, conn net.Conn, env Env, idle time.Duration) error {
	return serveConn(store, conn, env, pinThreshold, idle)
}

// serveConn is ServeConnIdle on any transport, with the pin threshold
// as a parameter; idle > 0 needs rw to be a net.Conn.
func serveConn(store *kvstore.Store, rw io.ReadWriter, env Env, pinFrom int, idle time.Duration) error {
	r, w, transport := newBufferedPair(rw)
	transport.idle = idle
	first, err := r.Peek(1)
	if err != nil {
		return nil
	}
	if first[0] == MagicRequest {
		s := NewBinarySessionBuffered(store, r, w, env)
		s.transport, s.conn, s.pinFrom = transport, rw, pinFrom
		return s.Serve()
	}
	s := NewSessionBuffered(store, r, w, env)
	s.transport, s.conn, s.pinFrom = transport, rw, pinFrom
	return s.Serve()
}

// sendPinned sends one reply whose value is pinned in the store: the
// replies staged before it are flushed, then head, value and tail go to
// the transport as one vectored write — writev on a TCP connection,
// one write each on any other transport — and the value is unpinned
// once the write has returned, whatever its outcome.
//
//kv3d:hotpath
func (c *core) sendPinned(head, value, tail []byte, pin kvstore.Pin) error {
	err := c.w.Flush()
	if err == nil {
		c.iov = append(c.iovArr[:0], head, value)
		if len(tail) != 0 {
			c.iov = append(c.iov, tail)
		}
		_, err = c.iov.WriteTo(c.conn)
	}
	c.store.Unpin(pin)
	return err
}

// peerLeft reports whether err is the stream ending, at a request
// boundary or inside a request.
func peerLeft(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// serve runs requests until quit, the peer leaving, or an error. The
// first two end the session cleanly wherever in a request they fall —
// unless the final flush fails, which would silently truncate the last
// response. It may be called again after a clean end and resumes where
// the stream left off.
func (c *core) serve(cd codec) error {
	for {
		err := c.serveOne(cd)
		switch {
		case err == nil:
			continue
		case errors.Is(err, ErrQuit), peerLeft(err):
			return c.w.Flush()
		default:
			// Surface both: the command error ended the session, and a
			// failed flush means the error response never reached the
			// client. errors.Is still matches either one.
			return errors.Join(err, c.w.Flush())
		}
	}
}

// serveOne is the envelope around one run of requests — for every
// request but a pipelined binary get, a run of one: read its head,
// start the op clock, ask the gate once, run the requests or shed the
// one read, stop the clock, observe them, give the slot back. A run
// holds one slot, as it is served by one goroutine start to end; a
// refused run is cut to its first request, and the requests behind it
// ask again as the next run. Shed requests are observed too — a busy
// refusal is part of the latency story, not a gap in it.
//
//kv3d:hotpath
func (c *core) serveOne(cd codec) error {
	if err := cd.next(); err != nil {
		return err
	}
	var start sim.Ns
	if c.timed {
		if c.transport != nil && !c.transport.read {
			start = c.lastEnd
		} else {
			start = c.env.Clock.Now()
		}
	}
	admitted := c.env.Gate == nil || c.env.Gate.TryAcquire()
	served := 1
	var err error
	out := OutcomeBusy
	if admitted {
		n := cd.run()
		c.sample(n)
		served, err = cd.exec(n)
		out = outcomeOf(err)
	} else {
		c.sample(1)
		err = cd.shed()
	}
	if c.timed {
		end := c.env.Clock.Now()
		c.observe(cd, served, out, start, end)
		if c.transport != nil {
			c.lastEnd, c.transport.read = end, false
		}
	}
	if admitted && c.env.Gate != nil {
		c.env.Gate.Release()
	}
	return err
}

// observe reports the n requests a run served between start and end
// as one Observer call, then a span for each sampled request. They all
// end with out: a run that an error ends at its last request was
// staged in the writer that failed.
//
//kv3d:hotpath
func (c *core) observe(cd codec, n int, out Outcome, start, end sim.Ns) {
	class, _ := cd.tag(0)
	c.env.Observer.ObserveOp(class, out, n, end-start)
	for i := 0; i < n && c.sampled>>i != 0; i++ {
		if c.sampled&(1<<i) != 0 {
			_, opaque := cd.tag(i)
			c.endSpan(class, out, opaque, start, end)
		}
	}
}

// sample decides which of the run's n requests get a span: bit i of
// sampled is request i. It resets the run's phase stamps.
//
//kv3d:hotpath
func (c *core) sample(n int) {
	c.sampled, c.tParse, c.tExec = 0, 0, 0
	if c.env.Flight == nil {
		return
	}
	for i := 0; i < n; i++ {
		if (c.flightSeq+uint64(i))%c.flightEvery == 0 {
			c.sampled |= 1 << i
		}
	}
	c.flightSeq += uint64(n)
}

// markParse stamps the end of the run's parse phase (first call wins).
//
//kv3d:hotpath
func (c *core) markParse() {
	if c.sampled != 0 && c.tParse == 0 {
		c.tParse = c.env.Clock.Now()
	}
}

// markExec stamps the end of the run's store-execute phase; first call
// wins, so multi-frame responders (binary stat) and runs measure up to
// their first write.
//
//kv3d:hotpath
func (c *core) markExec() {
	if c.sampled != 0 && c.tExec == 0 {
		c.tExec = c.env.Clock.Now()
	}
}

// endSpan emits one sampled request's span; every request of a run
// carries the run's stamps. Unstamped phases collapse to zero-length:
// parse defaults to the op start, execute to parse-done (cold verbs
// mark nothing and report all time as write).
//
//kv3d:hotpath
func (c *core) endSpan(class OpClass, out Outcome, opaque uint64, start, end sim.Ns) {
	p, e := c.tParse, c.tExec
	if p == 0 {
		p = start
	}
	if e == 0 {
		e = p
	}
	c.env.Flight.ObserveSpan(OpSpan{
		Start: start, ParseDone: p, ExecDone: e, End: end,
		Opaque: opaque, Class: class, Outcome: out, Binary: c.binary,
	})
}

// replicates is the loop guard: a write fans out only when a
// Replicator is installed and the write is not itself replica traffic
// (ReplLocal). ASCII writes pass ReplDefault, binary writes the mode
// their vbucket field carries. The four helpers below
// hand a mutation that succeeded locally to the Replicator, whose
// methods document why each must fan out; a miss is not replicated.
func (c *core) replicates(mode ReplMode) bool {
	return c.env.Repl != nil && mode != ReplLocal
}

// The key stays bytes until the guard has passed, so an unreplicated
// set allocates nothing here.
func (c *core) replicateSet(key, value []byte, flags uint32, exptime int64, mode ReplMode) error {
	if !c.replicates(mode) {
		return nil
	}
	return c.env.Repl.ReplicateSet(string(key), value, flags, exptime, mode)
}

func (c *core) replicateDelete(key string, mode ReplMode) error {
	if !c.replicates(mode) {
		return nil
	}
	return c.env.Repl.ReplicateDelete(key, mode)
}

func (c *core) replicateTouch(key string, exptime int64, mode ReplMode) error {
	if !c.replicates(mode) {
		return nil
	}
	return c.env.Repl.ReplicateTouch(key, exptime, mode)
}

func (c *core) replicateFlush(delay int64, mode ReplMode) error {
	if !c.replicates(mode) {
		return nil
	}
	return c.env.Repl.ReplicateFlush(delay, mode)
}
