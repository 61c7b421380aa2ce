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
	// Observer receives one callback per command, timed by NowNanos —
	// the clock is injected so this package never reads wall time
	// itself. Commands are observed only when both are set.
	Observer Observer
	NowNanos func() sim.Ns
	// Flight receives a phase-split OpSpan for one command in every
	// FlightEvery (minimum 1). Spans are stamped with NowNanos, so
	// Flight does nothing unless commands are observed.
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
// calls for one request come in the order next, then exec or shed,
// then tag; a codec keeps the request it is serving in its own fields.
type codec interface {
	// next reads one request up to the point its op clock starts: the
	// wait for a request to arrive is not part of handling it. An error
	// ends the session with nothing observed.
	next() error
	// tag reports the class and the correlation key of that request.
	tag() (OpClass, uint64)
	// exec reads the rest of the request, runs it and stages the reply.
	exec() error
	// shed reads the rest of the request, so the stream stays in step,
	// and stages a busy refusal in place of running it.
	shed() error
}

// core is the codec-independent half of a session.
type core struct {
	store *kvstore.Store
	r     *bufio.Reader
	w     *bufio.Writer
	env   Env
	// timed is env.Observer and env.NowNanos both set, decided once.
	timed bool
	// transport and lastEnd let a pipelined request skip its start
	// stamp: when the transport was not read since the previous request
	// ended, nothing was waited for and that request's end is this
	// one's start. Set by ServeConn only, which builds the pair itself;
	// a session on a caller's pair cannot see the caller's reads and
	// stamps every start.
	transport *flushBeforeRead
	lastEnd   sim.Ns
	// binary names the codec on sampled spans.
	binary bool

	// Sampled flight tracing: every flightEvery-th command gets a span.
	// spanActive and the t* stamps are per-command scratch, valid only
	// inside serveOne.
	flightEvery uint64
	flightSeq   uint64
	spanActive  bool
	tParse      sim.Ns
	tExec       sim.Ns
}

func newCore(store *kvstore.Store, r *bufio.Reader, w *bufio.Writer, env Env) core {
	c := core{store: store, r: r, w: w, env: env}
	c.timed = env.Observer != nil && env.NowNanos != nil
	if !c.timed {
		c.env.Flight = nil
	}
	c.flightEvery = uint64(max(env.FlightEvery, 1))
	return c
}

// NewBufferedPair builds the buffered reader and writer every session
// runs on, and with them the one flush policy of all three transports:
// responses are staged in the writer and written out when the session is
// about to read from the transport — that is, when it has consumed all
// the input it was given and would otherwise sleep. A pipelined burst
// therefore costs one write per read instead of one per op, and a
// client that withholds the rest of a request still gets every earlier
// reply first, because no session can block in a read with output
// pending. Sessions never flush at reply sites; Serve flushes on exit.
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
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	f.read = true
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// ServeConn serves one connection until its peer leaves, choosing the
// codec from the first byte: MagicRequest selects the binary protocol,
// anything else the ASCII protocol — memcached's auto-negotiation. A
// connection that ends before its first byte was never a session and
// returns nil.
func ServeConn(store *kvstore.Store, rw io.ReadWriter, env Env) error {
	r, w, transport := newBufferedPair(rw)
	first, err := r.Peek(1)
	if err != nil {
		return nil
	}
	if first[0] == MagicRequest {
		s := NewBinarySessionBuffered(store, r, w, env)
		s.transport = transport
		return s.Serve()
	}
	s := NewSessionBuffered(store, r, w, env)
	s.transport = transport
	return s.Serve()
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

// serveOne is the envelope around one request: read its head, start the
// op clock, ask the gate, run or shed it, observe it, give the slot
// back. Shed requests are observed too — a busy refusal is part of the
// latency story, not a gap in it.
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
			start = c.env.NowNanos()
		}
	}
	admitted := c.env.Gate == nil || c.env.Gate.TryAcquire()
	c.beginSpan()
	var err error
	out := OutcomeBusy
	if admitted {
		err = cd.exec()
		out = outcomeOf(err)
	} else {
		err = cd.shed()
	}
	if c.timed {
		end := c.env.NowNanos()
		class, opaque := cd.tag()
		c.env.Observer.ObserveOp(class, out, end-start)
		c.endSpan(class, out, opaque, start, end)
		if c.transport != nil {
			c.lastEnd, c.transport.read = end, false
		}
	}
	if admitted && c.env.Gate != nil {
		c.env.Gate.Release()
	}
	return err
}

// beginSpan decides whether this command is sampled and resets the
// phase stamps.
//
//kv3d:hotpath
func (c *core) beginSpan() {
	if c.env.Flight == nil {
		return
	}
	n := c.flightSeq
	c.flightSeq++
	if n%c.flightEvery != 0 {
		return
	}
	c.spanActive = true
	c.tParse = 0
	c.tExec = 0
}

// markParse stamps the end of the parse phase (first call wins).
//
//kv3d:hotpath
func (c *core) markParse() {
	if c.spanActive && c.tParse == 0 {
		c.tParse = c.env.NowNanos()
	}
}

// markExec stamps the end of the store-execute phase; first call wins,
// so multi-frame responders (binary stat) measure up to their first
// write.
//
//kv3d:hotpath
func (c *core) markExec() {
	if c.spanActive && c.tExec == 0 {
		c.tExec = c.env.NowNanos()
	}
}

// endSpan emits the sampled span. Unstamped phases collapse to
// zero-length: parse defaults to the op start, execute to parse-done
// (cold verbs mark nothing and report all time as write).
//
//kv3d:hotpath
func (c *core) endSpan(class OpClass, out Outcome, opaque uint64, start, end sim.Ns) {
	if !c.spanActive {
		return
	}
	c.spanActive = false
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
// Replicator is installed and the write is not itself replica or
// migration traffic (ReplLocal). ASCII writes pass ReplDefault, binary
// writes the mode their vbucket field carries. The four helpers below
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
