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
	"strconv"

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
	// StatusBusy is the load-shedding refusal, the binary twin of the
	// ASCII "SERVER_ERROR busy" line (memcached's EBUSY status).
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
	body []byte // reused frame body buffer
	val  []byte // reused get value buffer: the copied values of a run
	head []byte // reused head (header, extras, key) of a pinned get reply
	// Fixed-size scratch for the request header, the response header and
	// a get's flags extras: locals would escape to the heap through the
	// io.Reader/io.Writer interfaces, one allocation each per frame.
	reqHdr, respHdr [binHeaderLen]byte
	flags           [4]byte
	// h is the header of the frame being served, the first of its run.
	h binHeader

	// The run being served (core.serveOne): the headers of its frames,
	// h first; where each later frame's body starts in the buffered
	// bytes behind h's body, and how many bytes those frames take.
	runHdr  [maxRun]binHeader
	runBody [maxRun]int
	runRest int
	// The run's batched lookup: the frames' keys, their results, and
	// the store's grouping scratch.
	keys  [][]byte
	batch []kvstore.BatchResult
	scr   kvstore.BatchScratch
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
	s := &BinarySession{core: newCore(store, r, w, env)}
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
	s.h, s.runHdr[0] = h, h
	return nil
}

// getFamily reports whether op is get, getq, getk or getkq.
func getFamily(op byte) bool {
	return op == OpGet || op == OpGetQ || op == OpGetK || op == OpGetKQ
}

// run is one for any frame but a get. A get on a session that owns its
// transport runs together with the complete get frames already
// buffered behind it, up to maxRun: they are found with Peek on what
// the reader holds, so forming a run reads nothing from the transport
// and the flush-before-read policy sees the same reads as frame by
// frame. A frame that is not a well-formed get ends the run, and the
// next next reads it as usual.
//
//kv3d:hotpath
func (s *BinarySession) run() int {
	s.runRest = 0
	if !getFamily(s.h.opcode) || s.transport == nil {
		return 1
	}
	buf, _ := s.r.Peek(s.r.Buffered()) // never more than is buffered, so it cannot fail or read
	base := int(s.h.bodyLen)
	off, n := base, 1
	for n < maxRun && off+binHeaderLen <= len(buf) {
		h := parseBinHeader(buf[off:])
		end := off + binHeaderLen + int(h.bodyLen)
		if h.magic != MagicRequest || !getFamily(h.opcode) ||
			int(h.extrasLen)+int(h.keyLen) > int(h.bodyLen) || end > len(buf) {
			break
		}
		s.runHdr[n], s.runBody[n] = h, off+binHeaderLen-base
		n++
		off = end
	}
	s.runRest = off - base
	return n
}

// tag classifies frame i's opcode; binary spans carry the frame's
// opaque field as the correlation key.
func (s *BinarySession) tag(i int) (OpClass, uint64) {
	h := s.runHdr[i]
	return classifyOpcode(h.opcode), uint64(h.opaque)
}

// exec serves the run: a run of gets as one batch, any other frame on
// its own.
//
//kv3d:hotpath
func (s *BinarySession) exec(n int) (int, error) {
	if getFamily(s.h.opcode) {
		return s.getRun(n)
	}
	return 1, s.command()
}

// readBody reads the frame's body into the reused buffer and splits it;
// the three slices are valid until the next frame is read.
//
//kv3d:hotpath
func (s *BinarySession) readBody() (extras, key, value []byte, err error) {
	h := s.h
	if cap(s.body) < int(h.bodyLen) {
		s.body = make([]byte, h.bodyLen)
	}
	body := s.body[:h.bodyLen]
	if _, err := io.ReadFull(s.r, body); err != nil {
		return nil, nil, nil, err
	}
	s.markParse()
	nk := int(h.extrasLen) + int(h.keyLen)
	return body[:h.extrasLen], body[h.extrasLen:nk], body[nk:], nil
}

// shed refuses one frame while the server is over its in-flight cap.
// The body is consumed first, so the refusal cannot desynchronize the
// stream. Quiet variants are shed silently; quit still quits.
func (s *BinarySession) shed() error {
	if _, _, _, err := s.readBody(); err != nil {
		return err
	}
	h := s.h
	switch {
	case h.opcode == OpQuit:
		// The session ends either way; ErrQuit carries the outcome even
		// if the farewell respond failed.
		s.respond(h, StatusOK, nil, nil, nil, 0)
		return ErrQuit
	case h.opcode == OpQuitQ:
		return ErrQuit
	case quiet(h.opcode):
		return nil
	}
	return s.respond(h, StatusBusy, nil, nil, binBusy, 0)
}

// command reads the frame's body and executes it. The store family
// keeps its key as bytes of the frame body all the way into the store;
// every other opcode crosses into the string-keyed API. The get family
// never comes here: getRun serves it.
//
//kv3d:hotpath
func (s *BinarySession) command() error {
	h := s.h
	extras, keyB, value, err := s.readBody()
	if err != nil {
		return err
	}
	switch h.opcode {
	case OpSet, OpSetQ, OpAdd, OpAddQ, OpReplace, OpReplaceQ:
		return s.doStore(h, extras, keyB, value)
	}
	key := string(keyB) // concat, delete, arithmetic and admin opcodes tolerate one short per-frame allocation; the store family returns above and never reaches this line
	switch h.opcode {
	case OpAppend, OpAppendQ, OpPrepend, OpPrependQ:
		return s.doConcat(h, key, value)
	case OpDelete, OpDeleteQ:
		return s.doDelete(h, key)
	case OpIncr, OpIncrQ, OpDecr, OpDecrQ:
		return s.doIncrDecr(h, extras, key)
	case OpTouch:
		return s.doTouch(h, extras, key)
	case OpFlush, OpFlushQ:
		return s.doFlush(h, extras)
	case OpNoop:
		return s.respond(h, StatusOK, nil, nil, nil, 0)
	case OpVersion:
		return s.respond(h, StatusOK, nil, nil, binVersion, 0)
	case OpStat:
		return s.doStat(h)
	case OpQuit:
		s.respond(h, StatusOK, nil, nil, nil, 0)
		return ErrQuit
	case OpQuitQ:
		return ErrQuit
	default:
		return s.respond(h, StatusUnknownCommand, nil, nil, binUnknown, 0)
	}
}

// quiet reports whether the opcode is a quiet variant (success responses
// suppressed; for getq, miss responses suppressed).
func quiet(op byte) bool {
	switch op {
	case OpGetQ, OpGetKQ, OpSetQ, OpAddQ, OpReplaceQ, OpDeleteQ,
		OpIncrQ, OpDecrQ, OpQuitQ, OpFlushQ, OpAppendQ, OpPrependQ:
		return true
	}
	return false
}

// respond stages one response frame in the session writer. Its entry
// marks the end of the store-execute phase for sampled spans (first
// response wins). bufio's sticky error makes the last write report a
// failure of any of the four.
//
//kv3d:hotpath
func (s *BinarySession) respond(h binHeader, status uint16, extras, key, value []byte, cas uint64) error {
	s.markExec()
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
	binBusy     = []byte("busy")
	binNotFound = []byte("Not found")
	binUnknown  = []byte("Unknown command")
	binVersion  = []byte(Version)
)

// getRun serves a run of n get-family frames, the measured hot path
// of the binary protocol, without allocating: one batched lookup of
// their keys — slices of the frame bodies — then the replies staged in
// request order. A value of pinFrom bytes or more is pinned and sent
// from its chunk; shorter ones are copied into the reused val buffer
// while it stays under pinFrom bytes, and pinned past that, so a run
// of mid-size values keeps no more scratch than one value did. A run
// of one — every get on a caller's pair — takes the same path.
//
//kv3d:hotpath
func (s *BinarySession) getRun(n int) (int, error) {
	_, key, _, err := s.readBody()
	if err != nil {
		return 1, err
	}
	var rest []byte
	if s.runRest > 0 {
		rest, _ = s.r.Peek(s.runRest) // run counted these bytes as buffered
	}
	s.keys = append(s.keys[:0], key)
	for i := 1; i < n; i++ {
		h, off := s.runHdr[i], s.runBody[i]+int(s.runHdr[i].extrasLen)
		s.keys = append(s.keys, rest[off:off+int(h.keyLen)]) // keys alias the frame bodies, which stay put until the run is discarded below
	}
	s.val, s.batch = s.store.GetBatchInto(s.val[:0], s.keys, s.batch[:0], &s.scr, s.pinFrom)
	served := n
	for i := range s.batch {
		if err = s.getReply(s.runHdr[i], s.keys[i], &s.batch[i]); err != nil {
			served = i + 1
			for _, r := range s.batch[served:] {
				s.store.Unpin(r.Pin)
			}
			break
		}
	}
	s.r.Discard(s.runRest) // the run's later frames, all buffered: Discard cannot fail or read
	return served, err
}

// getReply stages the reply to one get of a run: a miss (silent for
// the quiet variants), a copied hit, a hit pinned short of pinFrom
// staged from its chunk, or a pinned hit of pinFrom bytes or more sent
// from its chunk behind the replies staged before it.
//
//kv3d:hotpath
func (s *BinarySession) getReply(h binHeader, key []byte, r *kvstore.BatchResult) error {
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
	s.markExec()
	s.head = append(s.head[:0], s.respHeader(h, StatusOK, s.flags[:], key, len(r.Pinned), r.CAS)...)
	s.head = append(append(s.head, s.flags[:]...), key...)
	return s.sendPinned(s.head, r.Pinned, nil, r.Pin)
}

// doStore serves the set family without allocating on success: key and
// value are slices of the frame body, copied by the store into the
// item's chunk.
func (s *BinarySession) doStore(h binHeader, extras, key, value []byte) error {
	if len(extras) != 8 {
		return s.respond(h, StatusInvalidArgs, nil, nil, []byte("Invalid arguments"), 0)
	}
	flags := binary.BigEndian.Uint32(extras)
	exptime := int64(int32(binary.BigEndian.Uint32(extras[4:])))
	verb := kvstore.VerbSet
	switch h.opcode {
	case OpSet, OpSetQ:
		if h.cas != 0 {
			verb = kvstore.VerbCAS
		}
	case OpAdd, OpAddQ:
		verb = kvstore.VerbAdd
	case OpReplace, OpReplaceQ:
		verb = kvstore.VerbReplace
	}
	cas, err := s.store.PutBytes(verb, key, value, flags, exptime, h.cas)
	if err != nil {
		return s.respond(h, storeStatus(err), nil, nil, []byte(err.Error()), 0)
	}
	// Replica fan-out after the local store succeeds. CAS and add/replace
	// variants all propagate as plain sets: replicas converge on the
	// winning value (last-writer-wins), they do not re-run the guard. A
	// quorum shortfall is reported even on quiet opcodes — the client
	// asked for an acknowledgement guarantee, so silence would lie.
	if rerr := s.replicateSet(key, value, flags, exptime, ReplModeFromVbucket(h.status)); rerr != nil {
		return s.respond(h, StatusNoQuorum, nil, nil, []byte(rerr.Error()), 0)
	}
	if quiet(h.opcode) {
		return nil
	}
	return s.respond(h, StatusOK, nil, nil, nil, cas)
}

func (s *BinarySession) doConcat(h binHeader, key string, value []byte) error {
	var err error
	if h.opcode == OpAppend || h.opcode == OpAppendQ {
		err = s.store.Append(key, value)
	} else {
		err = s.store.Prepend(key, value)
	}
	if err != nil {
		return s.respond(h, storeStatus(err), nil, nil, []byte(err.Error()), 0)
	}
	if quiet(h.opcode) {
		return nil
	}
	return s.respond(h, StatusOK, nil, nil, nil, 0)
}

func (s *BinarySession) doDelete(h binHeader, key string) error {
	err := s.store.Delete(key)
	if err != nil {
		if quiet(h.opcode) {
			return nil
		}
		return s.respond(h, StatusKeyNotFound, nil, nil, binNotFound, 0)
	}
	if rerr := s.replicateDelete(key, ReplModeFromVbucket(h.status)); rerr != nil {
		return s.respond(h, StatusNoQuorum, nil, nil, []byte(rerr.Error()), 0)
	}
	if quiet(h.opcode) {
		return nil
	}
	return s.respond(h, StatusOK, nil, nil, nil, 0)
}

func (s *BinarySession) doIncrDecr(h binHeader, extras []byte, key string) error {
	if len(extras) != 20 {
		return s.respond(h, StatusInvalidArgs, nil, nil, []byte("Invalid arguments"), 0)
	}
	delta := binary.BigEndian.Uint64(extras)
	initial := binary.BigEndian.Uint64(extras[8:])
	exptime := int64(int32(binary.BigEndian.Uint32(extras[16:])))

	v, cas, err := s.store.IncrDecr(key, delta, h.opcode == OpIncr || h.opcode == OpIncrQ)
	if errors.Is(err, kvstore.ErrNotFound) {
		// Binary protocol: exptime 0xffffffff means "do not create".
		if uint32(exptime) == 0xffffffff {
			return s.respond(h, StatusKeyNotFound, nil, nil, binNotFound, 0)
		}
		v = initial
		cas, err = s.store.Put(kvstore.VerbAdd, key, strconv.AppendUint(nil, initial, 10), 0, exptime, 0)
	}
	if err != nil {
		return s.respond(h, storeStatus(err), nil, nil, []byte(err.Error()), 0)
	}
	if quiet(h.opcode) {
		return nil
	}
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], v)
	return s.respond(h, StatusOK, nil, nil, out[:], cas)
}

func (s *BinarySession) doTouch(h binHeader, extras []byte, key string) error {
	if len(extras) != 4 {
		return s.respond(h, StatusInvalidArgs, nil, nil, []byte("Invalid arguments"), 0)
	}
	exptime := int64(int32(binary.BigEndian.Uint32(extras)))
	if err := s.store.Touch(key, exptime); err != nil {
		return s.respond(h, StatusKeyNotFound, nil, nil, binNotFound, 0)
	}
	if rerr := s.replicateTouch(key, exptime, ReplModeFromVbucket(h.status)); rerr != nil {
		return s.respond(h, StatusNoQuorum, nil, nil, []byte(rerr.Error()), 0)
	}
	return s.respond(h, StatusOK, nil, nil, nil, 0)
}

func (s *BinarySession) doFlush(h binHeader, extras []byte) error {
	// The optional extras are exactly one 32-bit delay. Anything else is
	// a malformed frame and must be refused — the previous behaviour of
	// silently flushing now turned a client framing bug into immediate
	// whole-cache loss. Error responses are sent even for flushq: quiet
	// suppresses success only.
	var delay int64
	switch len(extras) {
	case 0:
		// flush now
	case 4:
		delay = int64(binary.BigEndian.Uint32(extras))
	default:
		return s.respond(h, StatusInvalidArgs, nil, nil, []byte("Invalid arguments"), 0)
	}
	s.store.FlushAll(delay)
	if rerr := s.replicateFlush(delay, ReplModeFromVbucket(h.status)); rerr != nil {
		return s.respond(h, StatusNoQuorum, nil, nil, []byte(rerr.Error()), 0)
	}
	if quiet(h.opcode) {
		return nil
	}
	return s.respond(h, StatusOK, nil, nil, nil, 0)
}

// doStat sends the rows of the ASCII stats command, one frame each.
func (s *BinarySession) doStat(h binHeader) error {
	for _, row := range StatRows(s.store.Stats()) {
		if err := s.respond(h, StatusOK, nil, []byte(row[0]), []byte(row[1]), 0); err != nil {
			return err
		}
	}
	// Terminating empty stat.
	return s.respond(h, StatusOK, nil, nil, nil, 0)
}

func storeStatus(err error) uint16 {
	switch {
	case err == nil:
		return StatusOK
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
