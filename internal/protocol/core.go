package protocol

// The session core: what the ASCII and binary sessions share. A session
// is a codec (Session, BinarySession) — a parser and an encoder — around
// one core; the core owns the buffered pair, the injected dependencies,
// the Serve loop, the one per-request envelope, runs of gets and of
// stores, and execute, where every verb meets the store and the
// Replicator once for both codecs. DESIGN.md "The session core" has the
// envelope as a numbered sequence.

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"strconv"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvstore"
	"kv3d/internal/sim"
)

// Env is everything a session depends on besides its store and its
// transport, fixed when the session is built. The zero value is a bare
// session: nothing observed, every write local.
type Env struct {
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

// codec is what a wire format supplies to the core: a parser, from wire
// bytes to one command, and an encoder, from a result to wire bytes.
type codec interface {
	// next reads one request up to the point its op clock starts — the
	// wait for a request to arrive is not part of handling it — and sets
	// core.head. An error ends the session with nothing observed.
	next() error
	// parse reads the rest of that request (ASCII data block, binary
	// body) into cmd; a get appends its keys to core.keys, and a store
	// of pinFrom bytes or more receives its value into a reserved chunk.
	// A body or data block already buffered in full is left in the
	// reader, cmd's slices aliasing it, and counted in core.runRest. A
	// request the parser refuses is answered there and left as opNone.
	// An error ends the session, with no reservation held.
	parse(cmd *command) error
	// runAt reports the length of the complete, well-formed request of
	// the head's op — a get, or a store — at the head of buf, or 0 if
	// there is none. If there is one it becomes request i of the run: a
	// get's keys are appended to core.keys, a store is parsed into
	// core.run[i], all of them slices of buf. It reads nothing.
	runAt(i int, buf []byte) int
	// encode stages the reply to request i of the run, an executed
	// command other than a get; encodeGet the reply to get request i.
	encode(i int, cmd *command, res result) error
	encodeGet(i int, keys [][]byte, rs []kvstore.BatchResult) error
	// opaque is request i's correlation key: the binary opaque field;
	// no request id crosses the ASCII wire.
	opaque(i int) uint64
}

// op is what a request asks of the store, named once per codec by its
// verb or opcode.
type op uint8

const (
	opNone op = iota // an unknown verb, or a request its parser refused
	opGet
	opStore // set, add, replace or cas: command.verb says which
	opAppend
	opPrepend
	opDelete
	opIncr
	opDecr
	opTouch
	opFlush
	opStats
	opVersion
	opNoop // binary noop, ASCII verbosity: answered OK
	opQuit
)

// class is the latency class of the requests that name o.
func (o op) class() OpClass {
	switch o {
	case opGet:
		return ClassGet
	case opStore, opAppend, opPrepend:
		return ClassStore
	case opDelete:
		return ClassDelete
	case opIncr, opDecr:
		return ClassArith
	case opTouch:
		return ClassTouch
	}
	return ClassOther
}

// command is one request as its parser leaves it for execute. The byte
// fields alias the session's buffers until the next request is read —
// or, for a store received into a reserved chunk, the chunk until
// execute lets go of it.
type command struct {
	op      op
	verb    kvstore.Verb
	key     []byte // opStats: the group ("", "slabs", "settings")
	value   []byte
	flags   uint32
	exptime int64 // opFlush: the delay
	cas     uint64
	delta   uint64
	// initial is what a binary incr or decr of a missing key creates it
	// with, if create is set; ASCII answers NOT_FOUND.
	initial uint64
	create  bool
	// mode is the binary vbucket field's replication mode; ASCII writes
	// leave it ReplDefault.
	mode ReplMode
	// quiet is a binary quiet opcode (no reply on success), noreply an
	// ASCII noreply (no reply at all).
	quiet, noreply bool
	// res is the chunk a store's value was received into (receive), and
	// refused the store's refusal to reserve one; execute commits the
	// first and answers with the second.
	res     kvstore.Reservation
	refused error
}

// reset readies cmd for the next request one field at a time, so that
// nothing of the previous request is left over: assigning a composite
// literal to *cmd builds the literal and then copies all of it.
func (cmd *command) reset() {
	cmd.op, cmd.verb, cmd.key, cmd.value = opNone, kvstore.VerbSet, nil, nil
	cmd.flags, cmd.exptime, cmd.cas, cmd.delta, cmd.initial = 0, 0, 0, 0, 0
	cmd.create, cmd.mode, cmd.quiet, cmd.noreply = false, ReplDefault, false, false
	cmd.res, cmd.refused = kvstore.Reservation{}, nil
}

// result is what executing a command gave: the store's error or, for
// a write that succeeded locally, the replicator's (repl set); the CAS
// id it assigned; incr/decr's new value; the stats rows.
type result struct {
	err  error
	repl bool
	cas  uint64
	num  uint64
	rows [][2]string
}

// maxRun bounds a run, and with it the pins a run of gets holds: 32
// requests.
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
	// stamps every start, and forms runs of one.
	transport *flushBeforeRead
	lastEnd   sim.Ns
	// binary names the codec on sampled spans; head is the op the
	// request next read names, whose class every request of its run has.
	binary bool
	head   op

	// One copy per side: a GET hit whose value is at least pinFrom
	// bytes is pinned in the store and written from its chunk straight
	// to conn, the raw transport, by sendPinned; a run's copies stop
	// short of pinFrom bytes; and a store of at least pinFrom bytes is
	// read straight into the chunk the store reserves for it
	// (receive). serveConn sets both; a session on a caller's pair has
	// no transport to write to, and its pinFrom of MaxInt keeps every
	// value on the copy path.
	// iov and iovArr are the vectored write's list and its backing array.
	conn    io.Writer
	pinFrom int
	iov     net.Buffers
	iovArr  [3][]byte

	// The run being served: its commands (a run of gets fills only the
	// first) and their results; the gets' keys and where request i's
	// start in keys (keyAt[i]); how many bytes of the run are left in
	// the reader, aliased by the commands and keys, to be discarded once
	// the run is served; the batched calls' results and grouping
	// scratch; and val, which holds a run's copied values or an ASCII
	// data block read in pieces.
	run     [maxRun]command
	res     [maxRun]result
	keys    [][]byte
	keyAt   [maxRun + 1]int
	runRest int
	batch   []kvstore.BatchResult
	puts    [maxRun]kvstore.BatchPut
	scr     kvstore.BatchScratch
	val     []byte

	// Sampled flight tracing: every flightEvery-th command gets a span.
	// sampled (bit i: request i of the run) and the t* stamps are
	// per-run scratch, valid only inside serveOne.
	flightEvery uint64
	flightSeq   uint64
	sampled     uint32
	tParse      sim.Ns
	tExec       sim.Ns
}

// init readies a new session's core where it lies: a core, with its
// run's scratch, is too large to build and copy in.
func (c *core) init(store *kvstore.Store, r *bufio.Reader, w *bufio.Writer, env Env) {
	c.store, c.r, c.w, c.env, c.pinFrom = store, r, w, env, math.MaxInt
	c.timed = env.Observer != nil && env.Clock != nil
	if !c.timed {
		c.env.Flight = nil
	}
	c.flightEvery = uint64(max(env.FlightEvery, 1))
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
// from its chunk instead of copying, and the shortest a store receives
// into its chunk. Below it pinning saves nothing measurable
// (BenchmarkLargeGet), while a copied reply still shares one write with
// the other replies of a pipelined burst.
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
// request but a pipelined get or store, a run of one: read its head,
// start the op clock, run the requests, stop the clock, observe them.
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
	served, err := c.exec(cd)
	if c.timed {
		end := c.env.Clock.Now()
		c.observe(cd, served, outcomeOf(err), start, end)
		if c.transport != nil {
			c.lastEnd, c.transport.read = end, false
		}
	}
	return err
}

// exec serves a run: parse the request next read — a get or a store
// on a session that owns its transport takes along the complete
// requests of its op already buffered behind it, up to maxRun —
// execute them once, and stage the replies in request order. It
// returns how many requests it served: all, unless an error ended the
// session at the last one.
//
//kv3d:hotpath
func (c *core) exec(cd codec) (int, error) {
	cmd := &c.run[0]
	c.keys, c.runRest = c.keys[:0], 0
	err := cd.parse(cmd)
	n := 1
	if err == nil && c.transport != nil && cmd.runs() {
		// Found with Peek on what the reader holds, the run reads nothing
		// from the transport: flush-before-read sees the same reads as
		// request by request. The first request that is not a complete
		// one of the head's op ends the run; the next next reads it. So
		// does a store of pinFrom bytes or more, which is received into
		// its own chunk, or one that would take the run's values past
		// pinThreshold bytes: no shard lock is held across a large copy.
		buf, _ := c.r.Peek(c.r.Buffered()) // never more than is buffered, so it cannot fail or read
		vals := len(cmd.value)
		for ; n < maxRun; n++ {
			c.keyAt[n] = len(c.keys)
			size := cd.runAt(n, buf[c.runRest:])
			if size == 0 {
				break
			}
			if cmd.op == opStore {
				v := len(c.run[n].value)
				if vals += v; v >= c.pinFrom || vals > pinThreshold {
					break
				}
			}
			c.runRest += size
		}
	}
	c.sample(n)
	if err != nil || cmd.op == opNone {
		c.r.Discard(c.runRest) // a refused request's buffered body
		return 1, err
	}
	c.execute(n)
	if cmd.op != opGet {
		for i := 0; i < n && err == nil; i++ {
			if err = cd.encode(i, &c.run[i], c.res[i]); err != nil {
				n = i + 1 // the error ends the run at this request
			}
		}
		c.r.Discard(c.runRest) // the run's buffered bodies and later requests: Discard cannot fail or read
		return n, err
	}
	c.keyAt[n] = len(c.keys)
	for i := 0; i < n; i++ {
		k, end := c.keyAt[i], c.keyAt[i+1]
		if err = cd.encodeGet(i, c.keys[k:end], c.batch[k:end]); err != nil {
			for _, r := range c.batch[end:] {
				c.store.Unpin(r.Pin)
			}
			n = i + 1
		}
	}
	c.r.Discard(c.runRest) // the run's buffered bodies and later requests: Discard cannot fail or read
	return n, err
}

// runs reports whether cmd, parsed as the head of a run, may take
// along the requests of its op buffered behind it: a get, or a store
// whose value was not received into a reserved chunk.
func (cmd *command) runs() bool {
	return cmd.op == opGet || cmd.op == opStore && cmd.res == (kvstore.Reservation{}) && cmd.refused == nil
}

// execute runs the run's n commands against the store — a get's every
// key in one GetBatchInto, a run of stores in one PutBatch, any other
// command alone — and leaves request i's result in res[i]: the one
// store call of each verb, and the one hand-off of each write that
// succeeded locally to the Replicator, in request order once the store
// is done. Its entry stamps the end of the parse phase and its exit the
// end of the execute phase, for every verb of both codecs. A get's
// copies, short of pinFrom bytes in all, go to val and its results to
// batch. A store received into a reserved chunk, always alone, is
// committed, and the chunk let go of once replicated.
//
//kv3d:hotpath
func (c *core) execute(n int) {
	if c.sampled != 0 {
		c.tParse = c.env.Clock.Now()
	}
	cmd, res := &c.run[0], &c.res[0]
	*res = result{}
	switch cmd.op {
	case opGet:
		c.val, c.batch = c.store.GetBatchInto(c.val[:0], c.keys, c.batch[:0], &c.scr, c.pinFrom)
		n = 1 // a get replicates nothing, and the run's other commands are unused
	case opStore:
		switch {
		case cmd.refused != nil:
			res.err = cmd.refused
		case cmd.res != (kvstore.Reservation{}):
			res.cas, res.err = c.store.Commit(cmd.res, cmd.flags, cmd.exptime)
		default:
			c.putRun(n)
		}
	case opAppend:
		res.err = c.store.Append(string(cmd.key), cmd.value)
	case opPrepend:
		res.err = c.store.Prepend(string(cmd.key), cmd.value)
	case opDelete:
		res.err = c.store.Delete(string(cmd.key))
	case opIncr, opDecr:
		res.num, res.cas, res.err = c.store.IncrDecr(string(cmd.key), cmd.delta, cmd.op == opIncr)
		if cmd.create && errors.Is(res.err, kvstore.ErrNotFound) {
			res.num = cmd.initial
			res.cas, res.err = c.store.PutBytes(kvstore.VerbAdd, cmd.key, strconv.AppendUint(nil, cmd.initial, 10), 0, cmd.exptime, 0)
		}
	case opTouch:
		res.err = c.store.Touch(string(cmd.key), cmd.exptime)
	case opFlush:
		c.store.FlushAll(cmd.exptime)
	case opStats:
		res.rows = statRows(c.store, string(cmd.key))
	}
	for i := 0; i < n && c.env.Repl != nil; i++ {
		if cmd, res := &c.run[i], &c.res[i]; res.err == nil && cmd.mode != ReplLocal {
			res.err = c.replicate(cmd)
			res.repl = res.err != nil
		}
	}
	c.release(cmd) // after replication, which reads a received value from its chunk
	if c.sampled != 0 {
		c.tExec = c.env.Clock.Now()
	}
}

// putRun stores the run's n stores with one PutBatch call, which locks
// each shard they fall in once, and leaves each one's CAS id or
// refusal in res.
//
//kv3d:hotpath
func (c *core) putRun(n int) {
	puts := c.puts[:n]
	for i := range puts {
		p, cmd := &puts[i], &c.run[i]
		p.Verb, p.Key, p.Value, p.Flags, p.Exptime, p.CAS = cmd.verb, cmd.key, cmd.value, cmd.flags, cmd.exptime, cmd.cas
	}
	c.store.PutBatch(puts, &c.scr)
	for i := range puts {
		c.res[i] = result{err: puts[i].Err, cas: puts[i].NewCAS}
	}
}

// receive reads a store's n-byte value from the reader straight into
// the chunk the store reserves for it, so that the value is copied once
// in user space — by the reader, or not at all where bufio passes a
// large read through — instead of into session scratch and again into
// the chunk. A refusal to reserve (the verb's guard, the item limit,
// memory) is left in cmd.refused and the value skipped; a read that
// fails lets go of the reservation and returns the error.
//
//kv3d:hotpath
func (c *core) receive(cmd *command, n int) error {
	cmd.res, cmd.value, cmd.refused = c.store.Reserve(cmd.verb, cmd.key, n, cmd.cas)
	if cmd.refused != nil {
		_, err := c.r.Discard(n)
		return err
	}
	_, err := io.ReadFull(c.r, cmd.value)
	if err != nil {
		c.release(cmd)
	}
	return err
}

// release ends cmd's reservation, if it holds one: a committed value
// stays stored, any other is freed.
//
//kv3d:hotpath
func (c *core) release(cmd *command) {
	if cmd.res != (kvstore.Reservation{}) {
		c.store.Cancel(cmd.res)
		cmd.res = kvstore.Reservation{}
	}
}

// replicate hands a write that succeeded locally to the Replicator
// (Env.Repl says which do); execute skips replica traffic (ReplLocal),
// so fan-out never loops. CAS, add and replace propagate as plain sets:
// replicas converge on the winning value, not re-run the guard.
func (c *core) replicate(cmd *command) error {
	switch cmd.op {
	case opStore:
		return c.env.Repl.ReplicateSet(string(cmd.key), cmd.value, cmd.flags, cmd.exptime, cmd.mode)
	case opDelete:
		return c.env.Repl.ReplicateDelete(string(cmd.key), cmd.mode)
	case opTouch:
		return c.env.Repl.ReplicateTouch(string(cmd.key), cmd.exptime, cmd.mode)
	case opFlush:
		return c.env.Repl.ReplicateFlush(cmd.exptime, cmd.mode)
	}
	return nil
}

// observe reports the n requests a run served between start and end
// as one Observer call, then a span with the run's stamps for each
// sampled request. They all end with out: a run that an error ends at
// its last request was staged in the writer that failed. A request that
// was never executed has no stamps: its span is all write.
//
//kv3d:hotpath
func (c *core) observe(cd codec, n int, out Outcome, start, end sim.Ns) {
	class := c.head.class()
	c.env.Observer.ObserveOp(class, out, n, end-start)
	p, e := c.tParse, c.tExec
	if p == 0 {
		p = start
	}
	if e == 0 {
		e = p
	}
	for i := 0; i < n && c.sampled>>i != 0; i++ {
		if c.sampled&(1<<i) != 0 {
			c.env.Flight.ObserveSpan(OpSpan{
				Start: start, ParseDone: p, ExecDone: e, End: end,
				Opaque: cd.opaque(i), Class: class, Outcome: out, Binary: c.binary,
			})
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
