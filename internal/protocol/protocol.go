// Package protocol implements the memcached ASCII protocol: command
// parsing, response serialization, and a per-connection session loop
// that executes commands against a kvstore.Store. It supports the verb
// set used by memcached 1.4 (the paper's workload): get/gets, set, add,
// replace, append, prepend, cas, delete, incr, decr, touch, stats,
// flush_all, version, verbosity, and quit, including noreply variants.
package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kv3d/internal/kvstore"
	"kv3d/internal/sim"
)

// Version is reported by the "version" command.
const Version = "1.4.39-kv3d"

// Wire responses.
const (
	respStored    = "STORED\r\n"
	respNotStored = "NOT_STORED\r\n"
	respExists    = "EXISTS\r\n"
	respNotFound  = "NOT_FOUND\r\n"
	respDeleted   = "DELETED\r\n"
	respTouched   = "TOUCHED\r\n"
	respOK        = "OK\r\n"
	respEnd       = "END\r\n"
	respError     = "ERROR\r\n"
	// respBusy is the load-shedding refusal: the server is over its
	// in-flight cap and declines the command rather than queueing it.
	// Clients treat it as retryable (see kvclient.ErrBusy).
	respBusy = "SERVER_ERROR busy\r\n"
)

// maxLineLen bounds a command line, mirroring memcached's 2048 limit.
const maxLineLen = 2048

// ErrQuit is returned by Session.Serve when the client sent quit.
var ErrQuit = errors.New("protocol: client quit")

// Gate admits requests under a server-wide in-flight cap. TryAcquire
// is called before dispatching each command; if it refuses, the session
// answers busy instead of executing, and Release is not called. The
// implementation must be safe for concurrent use from all connection
// goroutines (kvserver's is a buffered-channel semaphore).
type Gate interface {
	// TryAcquire claims an execution slot without blocking.
	TryAcquire() bool
	// Release returns a slot claimed by TryAcquire.
	Release()
}

// Session serves the memcached protocol on one connection.
type Session struct {
	store *kvstore.Store
	r     *bufio.Reader
	w     *bufio.Writer
	// scratch buffers reused across requests to keep the hot path
	// allocation-free.
	valBuf  []byte
	lineBuf []byte
	numBuf  []byte
	// multiget scratch: key tokens of the current command line, the
	// per-key batch results, and the store-side grouping state.
	keyBuf   [][]byte
	batchBuf []kvstore.BatchResult
	batchScr kvstore.BatchScratch

	// Optional per-op observation; the clock is injected by the server
	// layer so this package never reads wall time itself.
	obs      Observer
	nowNanos func() sim.Ns

	// Optional sampled flight tracing (requires an observer clock):
	// every flightEvery-th op gets a phase-split OpSpan. spanActive and
	// the t* stamps are per-command scratch, valid only inside serveOne.
	flight      SpanObserver
	flightEvery uint64
	flightSeq   uint64
	spanActive  bool
	tParse      sim.Ns
	tExec       sim.Ns

	// Optional admission gate; nil means unlimited.
	gate Gate

	// Optional replica fan-out hook; nil means every write is local.
	// The ASCII protocol has no spare request field for a per-op mode,
	// so ASCII writes always replicate with the server default.
	repl Replicator
}

// SetGate installs an in-flight admission gate; call before Serve.
func (s *Session) SetGate(g Gate) { s.gate = g }

// SetReplicator installs the replica fan-out hook; call before Serve.
// Successful set/add/replace/cas stores and deletes are handed to it
// with ReplDefault (the ASCII protocol carries no per-op mode).
// Append/prepend and incr/decr stay local-only: their deltas are not
// idempotent, so propagating them as sets would race concurrent
// mutations — the ROBUSTNESS.md replication chapter records the gap.
func (s *Session) SetReplicator(r Replicator) { s.repl = r }

// SetObserver installs a per-op observer and the nanosecond clock used
// to time commands. Both must be non-nil to enable observation; call
// before Serve.
func (s *Session) SetObserver(o Observer, nowNanos func() sim.Ns) {
	s.obs = o
	s.nowNanos = nowNanos
}

// SetFlight installs a sampled per-op span observer: one op in every
// `every` (minimum 1) is timed through its parse / store-execute /
// write phases and reported as an OpSpan. Spans use the observer clock
// from SetObserver, so flight tracing is active only when an observer
// is installed too; call both before Serve.
func (s *Session) SetFlight(f SpanObserver, every int) {
	s.flight = f
	if every < 1 {
		every = 1
	}
	s.flightEvery = uint64(every)
}

// beginSpan decides whether this command is sampled and resets the
// phase stamps. Caller guarantees the observer clock is installed.
//
//kv3d:hotpath
func (s *Session) beginSpan() {
	if s.flight == nil {
		return
	}
	n := s.flightSeq
	s.flightSeq++
	if n%s.flightEvery != 0 {
		return
	}
	s.spanActive = true
	s.tParse = 0
	s.tExec = 0
}

// markParse stamps the end of the parse phase (first call wins).
//
//kv3d:hotpath
func (s *Session) markParse() {
	if s.spanActive && s.tParse == 0 {
		s.tParse = s.nowNanos()
	}
}

// markExec stamps the end of the store-execute phase (first call wins).
//
//kv3d:hotpath
func (s *Session) markExec() {
	if s.spanActive && s.tExec == 0 {
		s.tExec = s.nowNanos()
	}
}

// endSpan emits the sampled span. Unstamped phases collapse to
// zero-length: parse defaults to the op start, execute to parse-done
// (cold verbs mark nothing and report all time as write).
//
//kv3d:hotpath
func (s *Session) endSpan(class OpClass, out Outcome, start, end sim.Ns) {
	if !s.spanActive {
		return
	}
	s.spanActive = false
	p, e := s.tParse, s.tExec
	if p == 0 {
		p = start
	}
	if e == 0 {
		e = p
	}
	s.flight.ObserveSpan(OpSpan{
		Start: start, ParseDone: p, ExecDone: e, End: end,
		Class: class, Outcome: out,
	})
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
	w := bufio.NewWriterSize(rw, 64<<10)
	return bufio.NewReaderSize(&flushBeforeRead{r: rw, w: w}, 64<<10), w
}

// flushBeforeRead is the transport half of NewBufferedPair's reader.
type flushBeforeRead struct {
	r io.Reader
	w *bufio.Writer
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// NewSession serves the ASCII protocol on a transport.
func NewSession(store *kvstore.Store, rw io.ReadWriter) *Session {
	r, w := NewBufferedPair(rw)
	return NewSessionBuffered(store, r, w)
}

// NewSessionBuffered wraps pre-existing buffered I/O: a NewBufferedPair
// (the server, after protocol sniffing), or any other pair whose reader
// never blocks — output then appears as the writer fills and when Serve
// returns.
func NewSessionBuffered(store *kvstore.Store, r *bufio.Reader, w *bufio.Writer) *Session {
	return &Session{store: store, r: r, w: w}
}

// Serve processes commands until EOF, quit, or a transport error.
// A clean client disconnect returns nil — unless the final flush fails,
// which would silently truncate the last response.
func (s *Session) Serve() error {
	for {
		err := s.serveOne()
		switch {
		case err == nil:
			continue
		case errors.Is(err, ErrQuit), errors.Is(err, io.EOF):
			return s.w.Flush()
		default:
			// Surface both: the command error ended the session, and a
			// failed flush means the error response never reached the
			// client. errors.Is still matches either one.
			return errors.Join(err, s.w.Flush())
		}
	}
}

// serveOne reads and executes a single command. The command line is
// tokenized as byte slices into the session's reused line buffer; only
// the cold (non-GET) verbs fall back to string fields.
//
//kv3d:hotpath
func (s *Session) serveOne() error {
	line, err := s.readLine()
	if err != nil {
		return err
	}
	verb, rest := nextToken(line)
	if len(verb) == 0 {
		return s.reply(respError)
	}
	if s.obs != nil && s.nowNanos != nil {
		class := classifyVerbBytes(verb)
		start := s.nowNanos()
		if s.gate != nil && !s.gate.TryAcquire() {
			// Shed ops are observed too — a busy refusal is part of the
			// latency story, not a gap in it.
			s.beginSpan()
			err := s.shedBusy(verb, rest)
			end := s.nowNanos()
			s.obs.ObserveOp(class, OutcomeBusy, end-start)
			s.endSpan(class, OutcomeBusy, start, end)
			return err
		}
		s.beginSpan()
		err := s.dispatch(verb, rest)
		end := s.nowNanos()
		out := outcomeOf(err)
		s.obs.ObserveOp(class, out, end-start)
		s.endSpan(class, out, start, end)
		if s.gate != nil {
			s.gate.Release()
		}
		return err
	}
	if s.gate != nil && !s.gate.TryAcquire() {
		return s.shedBusy(verb, rest)
	}
	err = s.dispatch(verb, rest)
	if s.gate != nil {
		s.gate.Release()
	}
	return err
}

// shedBusy refuses one command while the server is over its in-flight
// cap. Store-class commands carry a data block that must be consumed
// before replying, or the refusal would desynchronize the stream (the
// block's bytes would be parsed as commands). noreply commands are shed
// silently, matching their fire-and-forget contract; quit still quits.
func (s *Session) shedBusy(verb, rest []byte) error {
	switch string(verb) {
	case "quit":
		return ErrQuit
	case "set", "add", "replace", "append", "prepend", "cas":
		c, ok, err := s.readStorage(rest, string(verb) == "cas")
		if !ok {
			return err
		}
		if c.noreply {
			return nil
		}
		return s.reply(respBusy)
	}
	if wantsNoReply(strings.Fields(string(rest))) {
		return nil
	}
	return s.reply(respBusy)
}

// dispatch executes one command. The verb comparison converts through
// string only inside the switch, which the compiler performs without
// allocating; the get and store verbs keep their arguments as tokens of
// the command line, cold verbs materialize argument strings.
//
//kv3d:hotpath
func (s *Session) dispatch(verb, rest []byte) error {
	switch string(verb) {
	case "get":
		return s.doGet(rest, false)
	case "gets":
		return s.doGet(rest, true)
	case "set":
		return s.doStore(kvstore.VerbSet, rest)
	case "add":
		return s.doStore(kvstore.VerbAdd, rest)
	case "replace":
		return s.doStore(kvstore.VerbReplace, rest)
	case "cas":
		return s.doStore(kvstore.VerbCAS, rest)
	case "append":
		return s.doConcat(rest, false)
	case "prepend":
		return s.doConcat(rest, true)
	case "quit":
		return ErrQuit
	}
	args := strings.Fields(string(rest)) //nolint:kv3d -- admin verbs tolerate one parse allocation; the get and store verbs return above and never reach this line
	switch string(verb) {
	case "delete":
		return s.doDelete(args)
	case "incr":
		return s.doIncrDecr(args, true)
	case "decr":
		return s.doIncrDecr(args, false)
	case "touch":
		return s.doTouch(args)
	case "stats":
		return s.doStats(args)
	case "flush_all":
		return s.doFlushAll(args)
	case "version":
		return s.reply("VERSION " + Version + "\r\n")
	case "verbosity":
		if wantsNoReply(args) {
			return nil
		}
		return s.reply(respOK)
	default:
		return s.reply(respError)
	}
}

// nextToken splits off the next space-delimited token (memcached's
// separator) without allocating; both return values alias the input.
//
//kv3d:aliases b
func nextToken(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && b[i] == ' ' {
		i++
	}
	j := i
	for j < len(b) && b[j] != ' ' {
		j++
	}
	return b[i:j], b[j:]
}

// readLine reads a \r\n-terminated command line. The returned slice
// aliases the session's line buffer and is valid until the next call.
//
//kv3d:hotpath
func (s *Session) readLine() ([]byte, error) {
	s.lineBuf = s.lineBuf[:0]
	for {
		frag, err := s.r.ReadSlice('\n')
		s.lineBuf = append(s.lineBuf, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(s.lineBuf) > maxLineLen {
				return nil, fmt.Errorf("protocol: command line exceeds %d bytes", maxLineLen)
			}
			continue
		}
		return nil, err
	}
	line := s.lineBuf
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		line = line[:n-2]
	} else if n >= 1 {
		line = line[:n-1] // tolerate bare \n like memcached does
	}
	if len(line) > maxLineLen {
		return nil, fmt.Errorf("protocol: command line exceeds %d bytes", maxLineLen)
	}
	return line, nil
}

func (s *Session) reply(msg string) error {
	_, err := s.w.WriteString(msg)
	return err
}

func (s *Session) clientError(msg string) error {
	return s.reply("CLIENT_ERROR " + msg + "\r\n")
}

func wantsNoReply(args []string) bool {
	return len(args) > 0 && args[len(args)-1] == "noreply"
}

// doGet serves get/gets, the measured hot path of the ASCII protocol.
// It must not allocate: keys stay byte slices of the command line,
// values copy into the reused valBuf, and the response header is
// assembled with strconv.Append into the reused numBuf (intermediate
// bufio writes lean on the sticky-error contract; the END write reports).
//
// A single-key get takes the direct per-key path; a multi-key get is
// served through kvstore.GetBatchInto, which groups the keys by shard
// and acquires each involved shard's lock once — an N-key get costs at
// most Shards lock acquisitions instead of N.
//
//kv3d:hotpath
func (s *Session) doGet(rest []byte, withCAS bool) error {
	key, rest := nextToken(rest)
	if len(key) == 0 {
		return s.reply(respError)
	}
	second, rest := nextToken(rest)
	if len(second) == 0 {
		// Single-key fast path, identical to the seed behaviour.
		s.markParse()
		out, e, ok := s.store.GetIntoBytes(s.valBuf[:0], key)
		s.markExec()
		s.valBuf = out[:0]
		if ok {
			s.writeValue(key, out, e.Flags, e.CAS, withCAS)
		}
		return s.reply(respEnd)
	}
	// Multi-key: collect the tokens (they alias lineBuf, which stays
	// untouched until the next readLine), run one batched lookup, then
	// emit VALUE blocks in request order.
	s.keyBuf = append(s.keyBuf[:0], key, second) //nolint:kv3d -- keyBuf entries alias lineBuf; both are this session's scratch, consumed before the next readLine overwrites them
	for {
		key, rest = nextToken(rest)
		if len(key) == 0 {
			break
		}
		s.keyBuf = append(s.keyBuf, key) //nolint:kv3d -- same session-scratch self-alias as above; keyBuf is reset at the next multiget
	}
	s.markParse()
	s.valBuf, s.batchBuf = s.store.GetBatchInto(s.valBuf[:0], s.keyBuf, s.batchBuf[:0], &s.batchScr)
	s.markExec()
	for i, r := range s.batchBuf {
		if r.Found {
			s.writeValue(s.keyBuf[i], s.valBuf[r.Start:r.End], r.Flags, r.CAS, withCAS)
		}
	}
	return s.reply(respEnd)
}

// writeValue emits one "VALUE <key> <flags> <len> [<cas>]\r\n<data>\r\n"
// block into the session writer (sticky-error contract; the caller's
// END write reports failures).
//
//kv3d:hotpath
func (s *Session) writeValue(key, val []byte, flags uint32, cas uint64, withCAS bool) {
	s.w.WriteString("VALUE ")
	s.w.Write(key)
	b := append(s.numBuf[:0], ' ')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(val)), 10)
	if withCAS {
		b = append(b, ' ')
		b = strconv.AppendUint(b, cas, 10)
	}
	s.numBuf = append(b, '\r', '\n')
	s.w.Write(s.numBuf)
	s.w.Write(val)
	s.w.WriteString("\r\n")
}

// storageCmd is a parsed storage command: the arguments of the command
// line plus, once readStorage has run, its data block.
type storageCmd struct {
	key, data []byte
	flags     uint32
	exptime   int64
	nbytes    int
	cas       uint64
	noreply   bool
}

var (
	errBadFormat    = errors.New("bad command line format")
	errBadChunkSize = errors.New("bad data chunk size")
)

// parseStorageArgs parses "<key> <flags> <exptime> <bytes> [<cas>]
// [noreply]" from the rest of a storage command line. The key aliases
// the line; the numeric tokens convert through strings that do not
// escape, so a well-formed line parses without allocating.
//
//kv3d:aliases rest
func parseStorageArgs(rest []byte, withCAS bool) (c storageCmd, err error) {
	c.key, rest = nextToken(rest)
	flags, rest := nextToken(rest)
	exptime, rest := nextToken(rest)
	nbytes, rest := nextToken(rest)
	var cas []byte
	if withCAS {
		cas, rest = nextToken(rest)
	}
	last, rest := nextToken(rest)
	if string(last) == "noreply" {
		c.noreply = true
		last, _ = nextToken(rest)
	}
	// Too few tokens leave the last expected one empty; too many leave
	// one after the optional noreply.
	if len(nbytes) == 0 || (withCAS && len(cas) == 0) || len(last) != 0 {
		return c, errBadFormat
	}
	f64, err := strconv.ParseUint(string(flags), 10, 32)
	if err != nil {
		return c, errBadFormat
	}
	c.flags = uint32(f64)
	if c.exptime, err = strconv.ParseInt(string(exptime), 10, 64); err != nil {
		return c, errBadFormat
	}
	n64, err := strconv.ParseUint(string(nbytes), 10, 31)
	if err != nil {
		return c, errBadChunkSize
	}
	c.nbytes = int(n64)
	if withCAS {
		if c.cas, err = strconv.ParseUint(string(cas), 10, 64); err != nil {
			return c, errBadFormat
		}
	}
	return c, nil
}

// readData reads the nbytes data block plus trailing \r\n.
func (s *Session) readData(nbytes int) ([]byte, error) {
	if cap(s.valBuf) < nbytes+2 {
		s.valBuf = make([]byte, nbytes+2)
	}
	buf := s.valBuf[:nbytes+2]
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return nil, err
	}
	if buf[nbytes] != '\r' || buf[nbytes+1] != '\n' {
		return nil, errors.New("bad data chunk")
	}
	return buf[:nbytes], nil
}

// readStorage parses a storage command's arguments and reads its data
// block. The key aliases the line buffer and the data the value buffer;
// both stay valid until the next command is read. When ok is false the
// command has been answered (or the stream has ended) and err is what
// serving it returns.
func (s *Session) readStorage(rest []byte, withCAS bool) (c storageCmd, ok bool, err error) {
	c, perr := parseStorageArgs(rest, withCAS)
	if perr != nil {
		return c, false, s.clientError(perr.Error())
	}
	if c.data, err = s.readData(c.nbytes); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return c, false, io.EOF
		}
		return c, false, s.clientError("bad data chunk")
	}
	return c, true, nil
}

// doStore serves set, add, replace and cas: the key token and the data
// block go to the store as they lie in the session's buffers, so a
// store allocates nothing per command.
func (s *Session) doStore(verb kvstore.Verb, rest []byte) error {
	c, ok, err := s.readStorage(rest, verb == kvstore.VerbCAS)
	if !ok {
		return err
	}
	s.markParse()
	_, serr := s.store.PutBytes(verb, c.key, c.data, c.flags, c.exptime, c.cas)
	if serr == nil && s.repl != nil {
		if rerr := s.repl.ReplicateSet(string(c.key), c.data, c.flags, c.exptime, ReplDefault); rerr != nil {
			serr = rerr
		}
	}
	s.markExec()
	if c.noreply {
		return nil
	}
	return s.reply(storeResponse(serr))
}

// doConcat serves append and prepend.
func (s *Session) doConcat(rest []byte, front bool) error {
	c, ok, err := s.readStorage(rest, false)
	if !ok {
		return err
	}
	s.markParse()
	var serr error
	if front {
		serr = s.store.Prepend(string(c.key), c.data)
	} else {
		serr = s.store.Append(string(c.key), c.data)
	}
	s.markExec()
	if c.noreply {
		return nil
	}
	return s.reply(storeResponse(serr))
}

func storeResponse(err error) string {
	switch {
	case err == nil:
		return respStored
	case errors.Is(err, kvstore.ErrNotStored):
		return respNotStored
	case errors.Is(err, kvstore.ErrExists):
		return respExists
	case errors.Is(err, kvstore.ErrNotFound):
		return respNotFound
	case errors.Is(err, kvstore.ErrTooLarge):
		return "SERVER_ERROR object too large for cache\r\n"
	case errors.Is(err, kvstore.ErrOutOfMemory):
		return "SERVER_ERROR out of memory storing object\r\n"
	case errors.Is(err, kvstore.ErrBadKey):
		return "CLIENT_ERROR bad key\r\n"
	default:
		return "SERVER_ERROR " + err.Error() + "\r\n"
	}
}

func (s *Session) doDelete(args []string) error {
	noreply := wantsNoReply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 1 {
		return s.clientError("bad command line format")
	}
	s.markParse()
	err := s.store.Delete(args[0])
	if err == nil && s.repl != nil {
		if rerr := s.repl.ReplicateDelete(args[0], ReplDefault); rerr != nil {
			err = rerr
		}
	}
	s.markExec()
	if noreply {
		return nil
	}
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		return s.reply(respNotFound)
	case err != nil:
		return s.reply("SERVER_ERROR " + err.Error() + "\r\n")
	}
	return s.reply(respDeleted)
}

func (s *Session) doIncrDecr(args []string, incr bool) error {
	noreply := wantsNoReply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 {
		return s.clientError("bad command line format")
	}
	delta, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return s.clientError("invalid numeric delta argument")
	}
	var v uint64
	if incr {
		v, err = s.store.Incr(args[0], delta)
	} else {
		v, err = s.store.Decr(args[0], delta)
	}
	if noreply {
		return nil
	}
	switch {
	case err == nil:
		return s.reply(strconv.FormatUint(v, 10) + "\r\n")
	case errors.Is(err, kvstore.ErrNotFound):
		return s.reply(respNotFound)
	case errors.Is(err, kvstore.ErrNotNumeric):
		return s.clientError("cannot increment or decrement non-numeric value")
	default:
		return s.reply("SERVER_ERROR " + err.Error() + "\r\n")
	}
}

func (s *Session) doTouch(args []string) error {
	noreply := wantsNoReply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 {
		return s.clientError("bad command line format")
	}
	exptime, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return s.clientError("invalid exptime argument")
	}
	terr := s.store.Touch(args[0], exptime)
	// A successful touch must fan out like a set: replicas that keep the
	// old TTL diverge from the primary (the item outlives or predeceases
	// its failover copy). Misses are not replicated — the replica's TTL
	// for a key the primary doesn't have is moot.
	if terr == nil && s.repl != nil {
		if rerr := s.repl.ReplicateTouch(args[0], exptime, ReplDefault); rerr != nil {
			terr = rerr
		}
	}
	if noreply {
		return nil
	}
	switch {
	case errors.Is(terr, kvstore.ErrNotFound):
		return s.reply(respNotFound)
	case terr != nil:
		return s.reply("SERVER_ERROR " + terr.Error() + "\r\n")
	}
	return s.reply(respTouched)
}

func (s *Session) doStats(args []string) error {
	if len(args) == 1 {
		switch args[0] {
		case "slabs":
			return s.doStatsSlabs()
		case "settings":
			return s.doStatsSettings()
		case "reset":
			// Accepted for compatibility; counters are cumulative here.
			return s.reply("RESET\r\n")
		default:
			return s.clientError("unknown stats sub-command")
		}
	}
	st := s.store.Stats()
	write := func(name string, value any) {
		fmt.Fprintf(s.w, "STAT %s %v\r\n", name, value)
	}
	write("version", Version)
	write("uptime", st.UptimeSeconds)
	write("curr_items", st.CurrItems)
	write("total_items", st.TotalItems)
	write("bytes", st.BytesUsed)
	write("limit_maxbytes", st.SlabBytes)
	write("get_hits", st.GetHits)
	write("get_misses", st.GetMisses)
	write("cmd_set", st.Sets)
	write("delete_hits", st.DeleteHits)
	write("delete_misses", st.DeleteMisses)
	write("cas_hits", st.CasHits)
	write("cas_misses", st.CasMisses)
	write("cas_badval", st.CasBadval)
	write("incr_hits", st.IncrHits)
	write("incr_misses", st.IncrMisses)
	write("decr_hits", st.DecrHits)
	write("decr_misses", st.DecrMisses)
	write("touch_hits", st.TouchHits)
	write("touch_misses", st.TouchMisses)
	write("evictions", st.Evictions)
	write("expired_unfetched", st.Expired)
	write("threads", st.Shards)
	return s.reply(respEnd)
}

// doStatsSlabs renders the per-class slab view like memcached's
// "stats slabs".
func (s *Session) doStatsSlabs() error {
	for _, c := range s.store.SlabStats() {
		fmt.Fprintf(s.w, "STAT %d:chunk_size %d\r\n", c.ClassID, c.ChunkSize)
		fmt.Fprintf(s.w, "STAT %d:total_pages %d\r\n", c.ClassID, c.Pages)
		fmt.Fprintf(s.w, "STAT %d:used_chunks %d\r\n", c.ClassID, c.UsedChunks)
		fmt.Fprintf(s.w, "STAT %d:free_chunks %d\r\n", c.ClassID, c.FreeChunks)
	}
	st := s.store.Stats()
	fmt.Fprintf(s.w, "STAT active_slabs %d\r\n", len(s.store.SlabStats()))
	fmt.Fprintf(s.w, "STAT slab_reassign_total %d\r\n", st.SlabReassigns)
	return s.reply(respEnd)
}

// doStatsSettings reports the store's effective configuration.
func (s *Session) doStatsSettings() error {
	cfg := s.store.Config()
	fmt.Fprintf(s.w, "STAT maxbytes %d\r\n", cfg.MemoryLimit)
	fmt.Fprintf(s.w, "STAT item_size_max %d\r\n", cfg.MaxItemSize)
	fmt.Fprintf(s.w, "STAT evictions %v\r\n", boolToOnOff(cfg.EvictionsEnabled))
	fmt.Fprintf(s.w, "STAT eviction_policy %s\r\n", cfg.Policy)
	fmt.Fprintf(s.w, "STAT locking %s\r\n", cfg.Mode)
	fmt.Fprintf(s.w, "STAT num_shards %d\r\n", cfg.Shards)
	fmt.Fprintf(s.w, "STAT slab_page_size %d\r\n", cfg.SlabPageSize)
	fmt.Fprintf(s.w, "STAT growth_factor %.2f\r\n", cfg.GrowthFactor)
	return s.reply(respEnd)
}

func boolToOnOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func (s *Session) doFlushAll(args []string) error {
	noreply := wantsNoReply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	var delay int64
	if len(args) == 1 {
		var err error
		delay, err = strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return s.clientError("invalid delay argument")
		}
	} else if len(args) > 1 {
		return s.clientError("bad command line format")
	}
	s.store.FlushAll(delay)
	// flush_all must reach replicas too, or a failover resurrects the
	// entire flushed dataset from a replica that never heard about it.
	var rerr error
	if s.repl != nil {
		rerr = s.repl.ReplicateFlush(delay, ReplDefault)
	}
	if noreply {
		return nil
	}
	if rerr != nil {
		return s.reply("SERVER_ERROR " + rerr.Error() + "\r\n")
	}
	return s.reply(respOK)
}
