// Package protocol implements memcached's ASCII and binary protocols:
// per codec a parser and an encoder, and one session core that executes
// what they parse against a kvstore.Store. It supports the verb set of
// memcached 1.4 (the paper's workload): get/gets, set, add, replace,
// append, prepend, cas, delete, incr, decr, touch, stats, flush_all,
// version, verbosity, and quit, with noreply and quiet variants.
package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

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
	lineBuf []byte
	numBuf  []byte
	// verb and rest split the command line being served; both alias
	// lineBuf and are valid until next reads the following line.
	verb, rest []byte
	// gets[i] is whether get request i of the run is a gets.
	gets [maxRun]bool
	// crlf receives the two bytes that end a data block.
	crlf [2]byte
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
	s := &Session{}
	s.init(store, r, w, env)
	return s
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
			s.head = asciiOps[string(s.verb)]
			return nil
		}
		if err := s.reply(respError); err != nil {
			return err
		}
	}
}

// asciiOps names the op of each verb; any other verb is opNone.
var asciiOps = map[string]op{
	"get": opGet, "gets": opGet, "set": opStore, "add": opStore, "replace": opStore, "cas": opStore,
	"append": opAppend, "prepend": opPrepend, "delete": opDelete, "incr": opIncr, "decr": opDecr,
	"touch": opTouch, "flush_all": opFlush, "stats": opStats, "version": opVersion,
	"verbosity": opNoop, "quit": opQuit,
}

func (s *Session) opaque(int) uint64 { return 0 }

// parse turns the command line, and a storage command's data block,
// into a command. The get and store verbs keep their arguments as
// tokens of the command line, without allocating.
//
//kv3d:hotpath
func (s *Session) parse(cmd *command) error {
	cmd.reset()
	switch s.head {
	case opNone:
		return s.reply(respError)
	case opGet:
		if !s.addGet(0, s.verb, s.rest) {
			return s.reply(respError)
		}
	case opStore, opAppend, opPrepend:
		return s.parseStorage(cmd)
	case opQuit, opVersion:
	default:
		return s.parseArgs(cmd)
	}
	cmd.op = s.head
	return nil
}

// parseArgs parses the arguments of a cold verb, split by bytes.Fields
// (one allocation per command, which these verbs tolerate): a trailing
// noreply — stats takes none — then the verb's own.
func (s *Session) parseArgs(cmd *command) error {
	args := bytes.Fields(s.rest)
	if n := len(args); n > 0 && string(args[n-1]) == "noreply" && s.head != opStats {
		cmd.noreply, args = true, args[:n-1]
	}
	var err error
	switch s.head {
	case opStats:
		if len(args) == 1 {
			switch string(args[0]) {
			case "slabs", "settings":
				cmd.key = args[0]
			case "reset":
				// Accepted for compatibility; counters are cumulative here.
				return s.reply("RESET\r\n")
			default:
				return s.clientError("unknown stats sub-command")
			}
		}
	case opDelete:
		if len(args) != 1 {
			return s.clientError("bad command line format")
		}
		cmd.key = args[0]
	case opIncr, opDecr:
		if len(args) != 2 {
			return s.clientError("bad command line format")
		}
		if cmd.delta, err = strconv.ParseUint(string(args[1]), 10, 64); err != nil {
			return s.clientError("invalid numeric delta argument")
		}
		cmd.key = args[0]
	case opTouch:
		if len(args) != 2 {
			return s.clientError("bad command line format")
		}
		if cmd.exptime, err = strconv.ParseInt(string(args[1]), 10, 64); err != nil {
			return s.clientError("invalid exptime argument")
		}
		cmd.key = args[0]
	case opFlush:
		if len(args) > 1 {
			return s.clientError("bad command line format")
		}
		if len(args) == 1 {
			if cmd.exptime, err = strconv.ParseInt(string(args[0]), 10, 64); err != nil {
				return s.clientError("invalid delay argument")
			}
		}
	}
	cmd.op = s.head
	return nil
}

// addGet appends the keys of a get or gets line to the run as request
// i, and reports whether the line has at least one. The keys alias the
// line.
//
//kv3d:hotpath
func (s *Session) addGet(i int, verb, rest []byte) bool {
	n := len(s.keys)
	for key, rest := nextToken(rest); len(key) != 0; key, rest = nextToken(rest) {
		s.keys = append(s.keys, key)
	}
	s.gets[i] = string(verb) == "gets"
	return len(s.keys) > n
}

// runAt reads a request of the head's op buffered behind the run's last
// one: a get line with a key, or a set, add, replace or cas line whose
// arguments parse, with its whole data block and the block's \r\n.
//
//kv3d:hotpath
func (s *Session) runAt(i int, buf []byte) int {
	n := bytes.IndexByte(buf, '\n') + 1
	if n == 0 {
		return 0
	}
	line := trimEOL(buf[:n])
	verb, rest := nextToken(line)
	if len(line) > maxLineLen || asciiOps[string(verb)] != s.head {
		return 0
	}
	if s.head == opGet {
		if !s.addGet(i, verb, rest) {
			return 0
		}
		return n
	}
	cmd := &s.run[i]
	cmd.reset()
	cmd.verb = storeVerbs[string(verb)]
	nbytes, err := parseStorageArgs(rest, cmd)
	end := n + nbytes + 2
	if err != nil || end > len(buf) || buf[end-2] != '\r' || buf[end-1] != '\n' {
		return 0
	}
	cmd.op, cmd.value = opStore, buf[n:n+nbytes]
	return end
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
	line := trimEOL(s.lineBuf)
	if len(line) > maxLineLen {
		return nil, fmt.Errorf("protocol: command line exceeds %d bytes", maxLineLen)
	}
	return line, nil
}

// trimEOL drops a line's \r\n, or a bare \n like memcached does.
func trimEOL(line []byte) []byte {
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		return line[:n-2]
	}
	return line[:len(line)-1]
}

func (s *Session) reply(msg string) error {
	_, err := s.w.WriteString(msg)
	return err
}

func (s *Session) clientError(msg string) error {
	return s.reply("CLIENT_ERROR " + msg + "\r\n")
}

// encode stages the reply to an executed command; noreply suppresses
// it, and quit has none.
func (s *Session) encode(_ int, cmd *command, res result) error {
	switch {
	case cmd.op == opQuit:
		return ErrQuit
	case cmd.noreply:
		return nil
	case cmd.op == opStats:
		for _, row := range res.rows {
			s.w.WriteString("STAT " + row[0] + " " + row[1] + "\r\n")
		}
		return s.reply(respEnd)
	case cmd.op == opVersion:
		return s.reply("VERSION " + Version + "\r\n")
	case res.repl:
		return s.reply("SERVER_ERROR " + res.err.Error() + "\r\n")
	case cmd.op == opStore || cmd.op == opAppend || cmd.op == opPrepend:
		return s.reply(storeResponse(res.err))
	case res.err == nil:
	case errors.Is(res.err, kvstore.ErrNotFound):
		return s.reply(respNotFound)
	case errors.Is(res.err, kvstore.ErrNotNumeric):
		return s.clientError("cannot increment or decrement non-numeric value")
	default:
		return s.reply("SERVER_ERROR " + res.err.Error() + "\r\n")
	}
	switch cmd.op {
	case opDelete:
		return s.reply(respDeleted)
	case opTouch:
		return s.reply(respTouched)
	case opIncr, opDecr:
		return s.reply(strconv.FormatUint(res.num, 10) + "\r\n")
	}
	return s.reply(respOK)
}

// encodeGet stages the VALUE blocks of get request i's hits, in request
// order, then END — without allocating: keys stay byte slices of the
// command line and each header is assembled in the reused numBuf
// (intermediate bufio writes lean on the sticky-error contract; the END
// write reports). A hit of pinFrom bytes or more is sent from its chunk
// behind the replies staged before it.
//
//kv3d:hotpath
func (s *Session) encodeGet(i int, keys [][]byte, rs []kvstore.BatchResult) error {
	withCAS := s.gets[i]
	for j := range rs {
		r := &rs[j]
		switch {
		case !r.Found:
		case r.Pin == (kvstore.Pin{}):
			s.writeValue(keys[j], s.val[r.Start:r.End], r.Flags, r.CAS, withCAS)
		case len(r.Pinned) < s.pinFrom: // pinned only because the copies filled val
			s.writeValue(keys[j], r.Pinned, r.Flags, r.CAS, withCAS)
			s.store.Unpin(r.Pin)
		default:
			// The last result's send carries END too: a lone pinned
			// get stays one write.
			last := j == len(rs)-1
			tail := valueEnd[:2]
			if last {
				tail = valueEnd
			}
			err := s.sendPinned(s.valueHead(keys[j], len(r.Pinned), r.Flags, r.CAS, withCAS), r.Pinned, tail, r.Pin)
			if err != nil || last {
				for _, r := range rs[j+1:] {
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

// storeVerbs names the guard of the storage verbs that have one; set,
// append and prepend store under VerbSet's.
var storeVerbs = map[string]kvstore.Verb{"add": kvstore.VerbAdd, "replace": kvstore.VerbReplace, "cas": kvstore.VerbCAS}

var (
	errBadFormat    = errors.New("bad command line format")
	errBadChunkSize = errors.New("bad data chunk size")
)

// parseStorage parses "<verb> <key> <flags> <exptime> <bytes> [<cas>]
// [noreply]" into cmd, freshly reset, and reads the data block: a set,
// add, replace or cas of pinFrom bytes or more into the chunk receive
// reserves, one that fits the reader's buffer nowhere (cmd.value
// aliases the reader until the run is served), any other into val. The
// key aliases the line. The numeric tokens convert through strings that
// do not escape, so a well-formed command parses without allocating. A
// malformed one is answered here (noreply or not).
//
//kv3d:hotpath
func (s *Session) parseStorage(cmd *command) error {
	cmd.verb = storeVerbs[string(s.verb)]
	nbytes, err := parseStorageArgs(s.rest, cmd)
	if err != nil {
		return s.clientError(err.Error())
	}
	inPlace := false
	switch {
	case s.head == opStore && nbytes >= s.pinFrom:
		err = s.receive(cmd, nbytes)
	case nbytes+2 <= s.r.Size():
		var blk []byte
		if blk, err = s.r.Peek(nbytes + 2); err == nil {
			cmd.value, s.crlf, s.runRest, inPlace = blk[:nbytes], [2]byte(blk[nbytes:]), nbytes+2, true
		}
	default:
		if cap(s.val) < nbytes {
			s.val = make([]byte, nbytes)
		}
		cmd.value = s.val[:nbytes]
		_, err = io.ReadFull(s.r, cmd.value)
	}
	if err == nil && !inPlace {
		_, err = io.ReadFull(s.r, s.crlf[:])
	}
	switch {
	case err != nil && peerLeft(err):
		s.release(cmd)
		return err
	case err != nil || s.crlf != [2]byte{'\r', '\n'}:
		s.release(cmd)
		return s.clientError("bad data chunk")
	}
	cmd.op = s.head
	return nil
}

// parseStorageArgs parses "<key> <flags> <exptime> <bytes> [<cas>]
// [noreply]" from the rest of a storage command line into cmd, and
// returns the data block's length.
func parseStorageArgs(rest []byte, cmd *command) (nbytes int, err error) {
	withCAS := cmd.verb == kvstore.VerbCAS
	cmd.key, rest = nextToken(rest)
	flags, rest := nextToken(rest)
	exptime, rest := nextToken(rest)
	size, rest := nextToken(rest)
	var cas []byte
	if withCAS {
		cas, rest = nextToken(rest)
	}
	last, rest := nextToken(rest)
	if string(last) == "noreply" {
		cmd.noreply = true
		last, _ = nextToken(rest)
	}
	// Too few tokens leave the last expected one empty; too many leave
	// one after the optional noreply.
	if len(size) == 0 || (withCAS && len(cas) == 0) || len(last) != 0 {
		return 0, errBadFormat
	}
	f64, err := strconv.ParseUint(string(flags), 10, 32)
	if err != nil {
		return 0, errBadFormat
	}
	cmd.flags = uint32(f64)
	if cmd.exptime, err = strconv.ParseInt(string(exptime), 10, 64); err != nil {
		return 0, errBadFormat
	}
	n64, err := strconv.ParseUint(string(size), 10, 31)
	if err != nil {
		return 0, errBadChunkSize
	}
	if withCAS {
		if cmd.cas, err = strconv.ParseUint(string(cas), 10, 64); err != nil {
			return 0, errBadFormat
		}
	}
	return int(n64), nil
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

// statRows renders a stats group: the general statistics (""), "slabs"
// or "settings".
func statRows(st *kvstore.Store, group string) [][2]string {
	switch group {
	case "slabs":
		return SlabRows(st.Stats())
	case "settings":
		cfg := st.Config()
		onOff, locking := "off", "striped"
		if cfg.EvictionsEnabled {
			onOff = "on"
		}
		if cfg.Shards == 1 {
			locking = "global"
		}
		return [][2]string{
			{"maxbytes", fmt.Sprint(cfg.MemoryLimit)},
			{"item_size_max", fmt.Sprint(cfg.MaxItemSize)},
			{"evictions", onOff},
			{"locking", locking},
			{"num_shards", fmt.Sprint(cfg.Shards)},
			{"slab_page_size", fmt.Sprint(cfg.SlabPageSize)},
			{"growth_factor", fmt.Sprintf("%.2f", cfg.GrowthFactor)},
		}
	}
	return StatRows(st.Stats())
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
