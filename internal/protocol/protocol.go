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

// ErrQuit is what executing quit returns: it ends the session cleanly
// (Serve returns nil) and is observed as a command that succeeded.
var ErrQuit = errors.New("protocol: client quit")

// Session serves the memcached ASCII protocol on one connection: the
// ASCII codec around the session core.
type Session struct {
	core
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
	// verb and rest split the command line being served; both alias
	// lineBuf and are valid until next reads the following line.
	verb, rest []byte
}

// NewSession serves the ASCII protocol on a transport, with no
// dependencies (the zero Env).
func NewSession(store *kvstore.Store, rw io.ReadWriter) *Session {
	r, w := NewBufferedPair(rw)
	return NewSessionBuffered(store, r, w, Env{})
}

// NewSessionBuffered wraps pre-existing buffered I/O: a NewBufferedPair,
// or any other pair whose reader never blocks — output then appears as
// the writer fills and when Serve returns.
func NewSessionBuffered(store *kvstore.Store, r *bufio.Reader, w *bufio.Writer, env Env) *Session {
	return &Session{core: newCore(store, r, w, env)}
}

// Serve processes commands until quit, the peer leaving, or a transport
// error; see core.serve.
func (s *Session) Serve() error { return s.serve(s) }

// next reads command lines until one names a verb; a blank line is
// answered ERROR and is not a command. The line is tokenized as byte
// slices into the session's reused line buffer.
//
//kv3d:hotpath
func (s *Session) next() error {
	for {
		line, err := s.readLine()
		if err != nil {
			return err
		}
		s.verb, s.rest = nextToken(line)
		if len(s.verb) != 0 {
			return nil
		}
		if err := s.reply(respError); err != nil {
			return err
		}
	}
}

// run is always one: an ASCII multi-get is one command, served by one
// batched lookup of its own.
func (s *Session) run() int { return 1 }

// tag classifies the verb; no request id crosses the ASCII wire.
func (s *Session) tag(int) (OpClass, uint64) { return classifyVerb(s.verb), 0 }

// exec runs the one command of the run.
//
//kv3d:hotpath
func (s *Session) exec(int) (int, error) { return 1, s.command() }

// shed refuses one command while the server is over its in-flight
// cap. Store-class commands carry a data block that must be consumed
// before replying, or the refusal would desynchronize the stream (the
// block's bytes would be parsed as commands). noreply commands are shed
// silently, matching their fire-and-forget contract; quit still quits.
func (s *Session) shed() error {
	verb, rest := s.verb, s.rest
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

// command executes one command. The verb comparison converts through
// string only inside the switch, which the compiler performs without
// allocating; the get and store verbs keep their arguments as tokens of
// the command line, cold verbs materialize argument strings.
//
//kv3d:hotpath
func (s *Session) command() error {
	verb, rest := s.verb, s.rest
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
	args := strings.Fields(string(rest)) // admin verbs tolerate one parse allocation; the get and store verbs return above and never reach this line
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

// doGet serves get/gets, the measured hot path of the ASCII protocol,
// the way getRun serves binary gets: one GetBatchInto call for every
// key, a lone one included, then the VALUE blocks in request order
// under the same copy budget, pinFrom. It must not allocate: keys stay
// byte slices of the command line and each header is assembled in the
// reused numBuf (intermediate bufio writes lean on the sticky-error
// contract; the END write reports).
//
//kv3d:hotpath
func (s *Session) doGet(rest []byte, withCAS bool) error {
	s.keyBuf = s.keyBuf[:0]
	for key, rest := nextToken(rest); len(key) != 0; key, rest = nextToken(rest) {
		s.keyBuf = append(s.keyBuf, key) // keyBuf entries alias lineBuf; both are this session's scratch, consumed before the next readLine overwrites them
	}
	if len(s.keyBuf) == 0 {
		return s.reply(respError)
	}
	s.markParse()
	s.valBuf, s.batchBuf = s.store.GetBatchInto(s.valBuf[:0], s.keyBuf, s.batchBuf[:0], &s.batchScr, s.pinFrom)
	s.markExec()
	for i := range s.batchBuf {
		r := &s.batchBuf[i]
		switch {
		case !r.Found:
		case r.Pin == (kvstore.Pin{}):
			s.writeValue(s.keyBuf[i], s.valBuf[r.Start:r.End], r.Flags, r.CAS, withCAS)
		case len(r.Pinned) < s.pinFrom: // pinned only because the copies filled valBuf
			s.writeValue(s.keyBuf[i], r.Pinned, r.Flags, r.CAS, withCAS)
			s.store.Unpin(r.Pin)
		default:
			// The last result's send carries END too: a lone pinned
			// get stays one write.
			last := i == len(s.batchBuf)-1
			tail := valueEnd[:2]
			if last {
				tail = valueEnd
			}
			err := s.sendPinned(s.valueHead(s.keyBuf[i], len(r.Pinned), r.Flags, r.CAS, withCAS), r.Pinned, tail, r.Pin)
			if err != nil || last {
				for _, r := range s.batchBuf[i+1:] {
					s.store.Unpin(r.Pin)
				}
				return err
			}
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
	s.w.Write(s.valueHead(key, len(val), flags, cas, withCAS))
	s.w.Write(val)
	s.w.WriteString("\r\n")
}

// valueHead renders "VALUE <key> <flags> <len> [<cas>]\r\n" into the
// reused numBuf.
//
//kv3d:hotpath
func (s *Session) valueHead(key []byte, n int, flags uint32, cas uint64, withCAS bool) []byte {
	b := append(append(s.numBuf[:0], "VALUE "...), key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	if withCAS {
		b = append(b, ' ')
		b = strconv.AppendUint(b, cas, 10)
	}
	s.numBuf = append(b, '\r', '\n')
	return s.numBuf
}

// valueEnd closes a get's reply whose last value is sent pinned: the
// value's own line end, then END. Its first two bytes end any other
// value sent pinned.
var valueEnd = []byte("\r\n" + respEnd)

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
		if peerLeft(err) {
			return c, false, err
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
	if serr == nil {
		serr = s.replicateSet(c.key, c.data, c.flags, c.exptime, ReplDefault)
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
	if err == nil {
		err = s.replicateDelete(args[0], ReplDefault)
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
	if terr == nil {
		terr = s.replicateTouch(args[0], exptime, ReplDefault)
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
			return s.writeStats(SlabRows(s.store.Stats()))
		case "settings":
			return s.doStatsSettings()
		case "reset":
			// Accepted for compatibility; counters are cumulative here.
			return s.reply("RESET\r\n")
		default:
			return s.clientError("unknown stats sub-command")
		}
	}
	return s.writeStats(StatRows(s.store.Stats()))
}

// writeStats sends rows as STAT lines and the closing END.
func (s *Session) writeStats(rows [][2]string) error {
	for _, row := range rows {
		s.w.WriteString("STAT " + row[0] + " " + row[1] + "\r\n")
	}
	return s.reply(respEnd)
}

// StatRows renders the general statistics as (name, value) rows, in
// the order the ASCII stats command has always sent them. It is the one
// table of the store counters' names: the binary stat opcode sends the
// same rows, and kvserver's /metrics exposes each numeric one as
// live.store.<name>.
func StatRows(st kvstore.Stats) [][2]string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	return [][2]string{
		{"version", Version},
		{"uptime", i(st.UptimeSeconds)},
		{"curr_items", u(st.CurrItems)},
		{"total_items", u(st.TotalItems)},
		{"bytes", i(st.BytesUsed)},
		{"limit_maxbytes", i(st.SlabBytes)},
		{"get_hits", u(st.GetHits)},
		{"get_misses", u(st.GetMisses)},
		{"cmd_set", u(st.Sets)},
		{"delete_hits", u(st.DeleteHits)},
		{"delete_misses", u(st.DeleteMisses)},
		{"cas_hits", u(st.CasHits)},
		{"cas_misses", u(st.CasMisses)},
		{"cas_badval", u(st.CasBadval)},
		{"incr_hits", u(st.IncrHits)},
		{"incr_misses", u(st.IncrMisses)},
		{"decr_hits", u(st.DecrHits)},
		{"decr_misses", u(st.DecrMisses)},
		{"touch_hits", u(st.TouchHits)},
		{"touch_misses", u(st.TouchMisses)},
		{"evictions", u(st.Evictions)},
		{"expired_unfetched", u(st.Expired)},
		{"threads", i(int64(st.Shards))},
	}
}

// SlabRows renders the per-class slab view like memcached's "stats
// slabs": four "<class>:<field>" rows per class with pages, then the
// totals. kvserver's /metrics exposes them as
// live.slab.class-NN.<field> and live.slab.<name>.
func SlabRows(st kvstore.Stats) [][2]string {
	rows := make([][2]string, 0, 4*len(st.Classes)+2)
	for _, c := range st.Classes {
		id := strconv.Itoa(c.ClassID) + ":"
		rows = append(rows,
			[2]string{id + "chunk_size", strconv.Itoa(c.ChunkSize)},
			[2]string{id + "total_pages", strconv.Itoa(c.Pages)},
			[2]string{id + "used_chunks", strconv.Itoa(c.UsedChunks)},
			[2]string{id + "free_chunks", strconv.Itoa(c.FreeChunks)})
	}
	return append(rows,
		[2]string{"active_slabs", strconv.Itoa(len(st.Classes))},
		[2]string{"slab_reassign_total", strconv.FormatUint(st.SlabReassigns, 10)})
}

// doStatsSettings reports the store's effective configuration.
func (s *Session) doStatsSettings() error {
	cfg := s.store.Config()
	fmt.Fprintf(s.w, "STAT maxbytes %d\r\n", cfg.MemoryLimit)
	fmt.Fprintf(s.w, "STAT item_size_max %d\r\n", cfg.MaxItemSize)
	fmt.Fprintf(s.w, "STAT evictions %v\r\n", boolToOnOff(cfg.EvictionsEnabled))
	locking := "striped"
	if cfg.Shards == 1 {
		locking = "global"
	}
	fmt.Fprintf(s.w, "STAT locking %s\r\n", locking)
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
	rerr := s.replicateFlush(delay, ReplDefault)
	if noreply {
		return nil
	}
	if rerr != nil {
		return s.reply("SERVER_ERROR " + rerr.Error() + "\r\n")
	}
	return s.reply(respOK)
}
