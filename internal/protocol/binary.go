package protocol

// The memcached binary protocol: 24-byte framed requests/responses with
// quiet (pipelined) variants. ServeConnIdle sniffs the first byte of a
// connection (0x80) and routes it here; everything else speaks the ASCII
// protocol. Opcode coverage matches memcached 1.4: get/getq/getk/getkq,
// set/add/replace (+quiet), delete(+q), incr/decr(+q), append/prepend
// (+q), quit(+q), flush(+q), noop, version, touch, stat.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"kv3d/internal/kvstore"
)

// Binary protocol magic bytes.
const (
	MagicRequest  = 0x80
	MagicResponse = 0x81
)

// Binary opcodes.
const (
	OpGet      = 0x00
	OpSet      = 0x01
	OpAdd      = 0x02
	OpReplace  = 0x03
	OpDelete   = 0x04
	OpIncr     = 0x05
	OpDecr     = 0x06
	OpQuit     = 0x07
	OpFlush    = 0x08
	OpGetQ     = 0x09
	OpNoop     = 0x0a
	OpVersion  = 0x0b
	OpGetK     = 0x0c
	OpGetKQ    = 0x0d
	OpAppend   = 0x0e
	OpPrepend  = 0x0f
	OpStat     = 0x10
	OpSetQ     = 0x11
	OpAddQ     = 0x12
	OpReplaceQ = 0x13
	OpDeleteQ  = 0x14
	OpIncrQ    = 0x15
	OpDecrQ    = 0x16
	OpQuitQ    = 0x17
	OpFlushQ   = 0x18
	OpAppendQ  = 0x19
	OpPrependQ = 0x1a
	OpTouch    = 0x1c
)

// Binary response status codes.
const (
	StatusOK             = 0x0000
	StatusKeyNotFound    = 0x0001
	StatusKeyExists      = 0x0002
	StatusValueTooLarge  = 0x0003
	StatusInvalidArgs    = 0x0004
	StatusNotStored      = 0x0005
	StatusNonNumeric     = 0x0006
	StatusUnknownCommand = 0x0081
	StatusOutOfMemory    = 0x0082
	// StatusBusy is memcached's EBUSY status, a server's refusal of a
	// request it is too loaded to run. This server never sends it; the
	// client maps it for the memcached servers that do.
	StatusBusy = 0x0085
)

const binHeaderLen = 24

// maxBinaryBody bounds one frame's body, mirroring the item size limit
// plus headroom for key and extras.
const maxBinaryBody = kvstore.DefaultMaxItemSize + 1024

type binHeader struct {
	magic     byte
	opcode    byte
	keyLen    uint16
	extrasLen uint8
	status    uint16 // vbucket on requests
	bodyLen   uint32
	opaque    uint32
	cas       uint64
}

func parseBinHeader(buf []byte) binHeader {
	return binHeader{
		magic:     buf[0],
		opcode:    buf[1],
		keyLen:    binary.BigEndian.Uint16(buf[2:]),
		extrasLen: buf[4],
		status:    binary.BigEndian.Uint16(buf[6:]),
		bodyLen:   binary.BigEndian.Uint32(buf[8:]),
		opaque:    binary.BigEndian.Uint32(buf[12:]),
		cas:       binary.BigEndian.Uint64(buf[16:]),
	}
}

// BinarySession serves the binary protocol on one connection: the
// binary codec around the session core.
type BinarySession struct {
	core
	body    []byte // reused buffer of a frame body larger than the reader's
	pinHead []byte // reused head (header, extras, key) of a pinned get reply
	// Fixed-size scratch for the request header, the response header and
	// a get's flags extras: locals would escape to the heap through the
	// io.Reader/io.Writer interfaces, one allocation each per frame.
	reqHdr, respHdr [binHeaderLen]byte
	flags           [4]byte
	// runHdr holds the headers of the run's frames, the one next read
	// first.
	runHdr [maxRun]binHeader
}

// NewBinarySession serves the binary protocol on a transport, with no
// dependencies (the zero Env). The caller must have consumed nothing
// from the stream (the magic byte is read here).
func NewBinarySession(store *kvstore.Store, rw io.ReadWriter) *BinarySession {
	r, w := NewBufferedPair(rw)
	return NewBinarySessionBuffered(store, r, w, Env{})
}

// NewBinarySessionBuffered wraps pre-existing buffered I/O, as
// NewSessionBuffered does.
func NewBinarySessionBuffered(store *kvstore.Store, r *bufio.Reader, w *bufio.Writer, env Env) *BinarySession {
	s := &BinarySession{}
	s.init(store, r, w, env)
	s.binary = true
	return s
}

// Serve processes frames until quit, the peer leaving, or a transport
// error; see core.serve.
func (s *BinarySession) Serve() error { return s.serve(s) }

// next reads and validates one frame header. The op clock starts after
// this (possibly idle) blocking read, so the parse phase covers body
// read and field split but not time spent waiting for a request to
// arrive. A malformed header ends the session.
//
//kv3d:hotpath
func (s *BinarySession) next() error {
	if _, err := io.ReadFull(s.r, s.reqHdr[:]); err != nil {
		return err
	}
	h := parseBinHeader(s.reqHdr[:])
	if h.magic != MagicRequest {
		return fmt.Errorf("protocol: bad binary magic %#02x", h.magic)
	}
	if h.bodyLen > maxBinaryBody {
		return fmt.Errorf("protocol: binary body %d exceeds limit", h.bodyLen)
	}
	if int(h.extrasLen)+int(h.keyLen) > int(h.bodyLen) {
		return fmt.Errorf("protocol: binary frame lengths inconsistent")
	}
	s.runHdr[0], s.head = h, binOps[h.opcode]
	return nil
}

// binOps names the op of each opcode; the rest are opNone, unknown.
var binOps = [256]op{
	OpGet: opGet, OpGetQ: opGet, OpGetK: opGet, OpGetKQ: opGet,
	OpSet: opStore, OpSetQ: opStore, OpAdd: opStore, OpAddQ: opStore, OpReplace: opStore, OpReplaceQ: opStore,
	OpAppend: opAppend, OpAppendQ: opAppend, OpPrepend: opPrepend, OpPrependQ: opPrepend,
	OpDelete: opDelete, OpDeleteQ: opDelete, OpIncr: opIncr, OpIncrQ: opIncr, OpDecr: opDecr, OpDecrQ: opDecr,
	OpTouch: opTouch, OpFlush: opFlush, OpFlushQ: opFlush, OpStat: opStats, OpVersion: opVersion,
	OpNoop: opNoop, OpQuit: opQuit, OpQuitQ: opQuit,
}

// runAt reads a frame of the head's op buffered behind the run's last
// request: a get, or a store whose extras are right. Its key and value
// alias the frame, which stays put until the run is discarded.
//
//kv3d:hotpath
func (s *BinarySession) runAt(i int, buf []byte) int {
	if len(buf) < binHeaderLen {
		return 0
	}
	h := parseBinHeader(buf)
	end := binHeaderLen + int(h.bodyLen)
	nk := int(h.extrasLen) + int(h.keyLen)
	if h.magic != MagicRequest || binOps[h.opcode] != s.head || nk > int(h.bodyLen) || end > len(buf) {
		return 0
	}
	body := buf[binHeaderLen:end]
	extras, key := body[:h.extrasLen], body[h.extrasLen:nk]
	if s.head == opGet {
		s.keys = append(s.keys, key)
	} else if cmd := &s.run[i]; !s.storeCommand(cmd, h, extras, key, body[nk:]) {
		return 0
	}
	s.runHdr[i] = h
	return end
}

func (s *BinarySession) opaque(i int) uint64 { return uint64(s.runHdr[i].opaque) }

// readBody reads the first n bytes of the frame's body — all of it, or
// all but a value receive reads — and splits them; the three slices are
// valid until the run is served. A whole body that fits the reader's
// buffer is read into it and left there, to be discarded with the run;
// any other is read into the reused buffer.
//
//kv3d:hotpath
func (s *BinarySession) readBody(n int) (extras, key, value []byte, err error) {
	h := s.runHdr[0]
	var body []byte
	if n == int(h.bodyLen) && n <= s.r.Size() {
		if body, err = s.r.Peek(n); err != nil {
			return nil, nil, nil, err
		}
		s.runRest = n
	} else {
		if cap(s.body) < n {
			s.body = make([]byte, n)
		}
		body = s.body[:n]
		if _, err := io.ReadFull(s.r, body); err != nil {
			return nil, nil, nil, err
		}
	}
	nk := int(h.extrasLen) + int(h.keyLen)
	return body[:h.extrasLen], body[h.extrasLen:nk], body[nk:], nil
}

// parse reads the frame's body and turns it into a command: key and
// value stay slices of the body, the extras become fields, and the
// vbucket field the replication mode. A set, add, replace or cas whose
// value is pinFrom bytes or more reads only extras and key with the
// body, and receives the value into its chunk. Wrong extras and unknown
// opcodes are answered here, once the body is consumed.
//
//kv3d:hotpath
func (s *BinarySession) parse(cmd *command) error {
	h := s.runHdr[0]
	n, rest := int(h.bodyLen), 0
	if nk := int(h.extrasLen) + int(h.keyLen); s.head == opStore && n-nk >= s.pinFrom {
		n, rest = nk, n-nk
	}
	extras, key, value, err := s.readBody(n)
	if err != nil {
		return err
	}
	if s.head == opStore {
		switch {
		case !s.storeCommand(cmd, h, extras, key, value):
			if _, err := s.r.Discard(rest); err != nil {
				return err
			}
			return s.respond(h, StatusInvalidArgs, nil, nil, binInvalid, 0)
		case rest > 0:
			return s.receive(cmd, rest)
		}
		return nil
	}
	cmd.reset()
	cmd.key, cmd.value, cmd.cas = key, value, h.cas
	cmd.mode, cmd.quiet = ReplModeFromVbucket(h.status), quiet(h.opcode)
	switch s.head {
	case opNone:
		return s.respond(h, StatusUnknownCommand, nil, nil, binUnknown, 0)
	case opGet:
		s.keys = append(s.keys, key)
	case opIncr, opDecr:
		if len(extras) != 20 {
			return s.respond(h, StatusInvalidArgs, nil, nil, binInvalid, 0)
		}
		cmd.delta = binary.BigEndian.Uint64(extras)
		cmd.initial = binary.BigEndian.Uint64(extras[8:])
		cmd.exptime = int64(int32(binary.BigEndian.Uint32(extras[16:])))
		// Binary protocol: exptime 0xffffffff means "do not create".
		cmd.create = uint32(cmd.exptime) != 0xffffffff
	case opTouch:
		if len(extras) != 4 {
			return s.respond(h, StatusInvalidArgs, nil, nil, binInvalid, 0)
		}
		cmd.exptime = int64(int32(binary.BigEndian.Uint32(extras)))
	case opFlush:
		// The optional extras are exactly one 32-bit delay; anything
		// else is refused, even for flushq, rather than turning a
		// client framing bug into immediate whole-cache loss.
		switch len(extras) {
		case 0:
		case 4:
			cmd.exptime = int64(binary.BigEndian.Uint32(extras))
		default:
			return s.respond(h, StatusInvalidArgs, nil, nil, binInvalid, 0)
		}
	case opStats:
		cmd.key = nil // every stat request gets the general rows
	}
	cmd.op = s.head
	return nil
}

// storeCommand turns a set, add, replace or cas frame into cmd, freshly
// reset, and reports whether its extras were right; if not, cmd is
// left as opNone.
func (s *BinarySession) storeCommand(cmd *command, h binHeader, extras, key, value []byte) bool {
	cmd.reset()
	if len(extras) != 8 {
		return false
	}
	cmd.key, cmd.value, cmd.cas = key, value, h.cas
	cmd.mode, cmd.quiet = ReplModeFromVbucket(h.status), quiet(h.opcode)
	cmd.flags = binary.BigEndian.Uint32(extras)
	cmd.exptime = int64(int32(binary.BigEndian.Uint32(extras[4:])))
	switch {
	case h.opcode == OpAdd || h.opcode == OpAddQ:
		cmd.verb = kvstore.VerbAdd
	case h.opcode == OpReplace || h.opcode == OpReplaceQ:
		cmd.verb = kvstore.VerbReplace
	case h.cas != 0:
		cmd.verb = kvstore.VerbCAS
	}
	cmd.op = opStore
	return true
}

// quiet reports whether the opcode is a quiet variant (success responses
// suppressed; for getq, miss responses suppressed).
func quiet(op byte) bool {
	return op == OpGetQ || op == OpGetKQ || op >= OpSetQ && op <= OpPrependQ
}

// encode stages the reply to frame i of the run. A quorum shortfall is
// reported even on quiet opcodes — the client asked for an
// acknowledgement guarantee, so silence would lie — and so is any other
// failure but a deleteq's miss; quiet suppresses success.
func (s *BinarySession) encode(i int, cmd *command, res result) error {
	h := s.runHdr[i]
	switch {
	case res.err == nil:
	case res.repl:
		return s.respond(h, StatusNoQuorum, nil, nil, []byte(res.err.Error()), 0)
	case cmd.op == opDelete && cmd.quiet:
		return nil
	case cmd.op == opDelete, cmd.op == opTouch, errors.Is(res.err, kvstore.ErrNotFound) && (cmd.op == opIncr || cmd.op == opDecr):
		return s.respond(h, StatusKeyNotFound, nil, nil, binNotFound, 0)
	default:
		return s.respond(h, storeStatus(res.err), nil, nil, []byte(res.err.Error()), 0)
	}
	switch {
	case cmd.op == opQuit:
		// The session ends either way; ErrQuit carries the outcome even
		// if the farewell respond failed.
		if !cmd.quiet {
			s.respond(h, StatusOK, nil, nil, nil, 0)
		}
		return ErrQuit
	case cmd.quiet:
		return nil
	case cmd.op == opStats:
		// The rows of the ASCII stats command, one frame each, then an
		// empty one.
		for _, row := range res.rows {
			if err := s.respond(h, StatusOK, nil, []byte(row[0]), []byte(row[1]), 0); err != nil {
				return err
			}
		}
	case cmd.op == opVersion:
		return s.respond(h, StatusOK, nil, nil, binVersion, 0)
	case cmd.op == opIncr || cmd.op == opDecr:
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], res.num)
		return s.respond(h, StatusOK, nil, nil, out[:], res.cas)
	}
	return s.respond(h, StatusOK, nil, nil, nil, res.cas)
}

// respond stages one response frame in the session writer. bufio's
// sticky error makes the last write report a failure of any of the
// four.
//
//kv3d:hotpath
func (s *BinarySession) respond(h binHeader, status uint16, extras, key, value []byte, cas uint64) error {
	s.w.Write(s.respHeader(h, status, extras, key, len(value), cas))
	s.w.Write(extras)
	s.w.Write(key)
	_, err := s.w.Write(value)
	return err
}

// respHeader encodes the 24-byte header of a response frame into the
// session's scratch.
//
//kv3d:hotpath
func (s *BinarySession) respHeader(h binHeader, status uint16, extras, key []byte, valueLen int, cas uint64) []byte {
	hdr := s.respHdr[:]
	hdr[0] = MagicResponse
	hdr[1] = h.opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(key)))
	hdr[4] = byte(len(extras))
	binary.BigEndian.PutUint16(hdr[6:], status)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(extras)+len(key)+valueLen))
	binary.BigEndian.PutUint32(hdr[12:], h.opaque)
	binary.BigEndian.PutUint64(hdr[16:], cas)
	return hdr
}

// Static response bodies the hot-path functions send.
var (
	binNotFound = []byte("Not found")
	binInvalid  = []byte("Invalid arguments")
	binUnknown  = []byte("Unknown command")
	binVersion  = []byte(Version)
)

// encodeGet stages the reply to get frame i of the run without
// allocating: a miss (silent for the quiet variants), a copied hit, a
// hit pinned short of pinFrom staged from its chunk, or a pinned hit of
// pinFrom bytes or more sent from its chunk behind the replies staged
// before it.
//
//kv3d:hotpath
func (s *BinarySession) encodeGet(i int, keys [][]byte, rs []kvstore.BatchResult) error {
	h, key, r := s.runHdr[i], keys[0], &rs[0]
	if !r.Found {
		if quiet(h.opcode) {
			return nil // getq: silent miss
		}
		return s.respond(h, StatusKeyNotFound, nil, nil, binNotFound, 0)
	}
	binary.BigEndian.PutUint32(s.flags[:], r.Flags)
	if h.opcode != OpGetK && h.opcode != OpGetKQ {
		key = nil
	}
	switch {
	case r.Pin == (kvstore.Pin{}):
		return s.respond(h, StatusOK, s.flags[:], key, s.val[r.Start:r.End], r.CAS)
	case len(r.Pinned) < s.pinFrom:
		// Pinned only because the run's copies filled val: staged
		// from its chunk like a copied value, then let go.
		err := s.respond(h, StatusOK, s.flags[:], key, r.Pinned, r.CAS)
		s.store.Unpin(r.Pin)
		return err
	}
	s.pinHead = append(s.pinHead[:0], s.respHeader(h, StatusOK, s.flags[:], key, len(r.Pinned), r.CAS)...)
	s.pinHead = append(append(s.pinHead, s.flags[:]...), key...)
	return s.sendPinned(s.pinHead, r.Pinned, nil, r.Pin)
}

func storeStatus(err error) uint16 {
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		return StatusKeyNotFound
	case errors.Is(err, kvstore.ErrExists):
		return StatusKeyExists
	case errors.Is(err, kvstore.ErrTooLarge):
		return StatusValueTooLarge
	case errors.Is(err, kvstore.ErrNotStored):
		return StatusNotStored
	case errors.Is(err, kvstore.ErrNotNumeric):
		return StatusNonNumeric
	case errors.Is(err, kvstore.ErrOutOfMemory):
		return StatusOutOfMemory
	case errors.Is(err, kvstore.ErrBadKey):
		return StatusInvalidArgs
	default:
		return StatusUnknownCommand
	}
}
