package kvclient

// BinaryClient speaks the memcached binary protocol over one TCP
// connection. Next to the ASCII Client it adds two header fields: the
// vbucket field carries a write's per-op replication mode (see
// protocol.ReplMode), and the opaque field, which the server echoes
// verbatim, lets every reply be checked against its request. Like
// Client, a BinaryClient is not safe for concurrent use — open one per
// goroutine.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/protocol"
)

// maxBinaryRespBody bounds one response frame's body so a desynchronized
// stream cannot make the client allocate an absurd buffer.
const maxBinaryRespBody = 16 << 20

// BinaryClient is a single-connection binary-protocol client.
type BinaryClient struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	opTimeout time.Duration

	// opaque is the last request opaque handed out; replies are
	// matched against it.
	opaque uint32

	// Scratch reused across calls, so the one allocation a Get makes is
	// the response body the caller gets to keep: the two headers would
	// escape through the bufio and io interfaces, and GetMulti's key and
	// opaque lists would be made anew per batch.
	wHdr, rHdr [24]byte
	keys       []string
	opaques    []uint32
}

// DialBinaryOptions connects to a memcached server's binary protocol.
func DialBinaryOptions(addr string, o Options) (*BinaryClient, error) {
	o = o.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, err
	}
	return NewBinaryClientOptions(conn, o), nil
}

// NewBinaryClient wraps an existing connection.
func NewBinaryClient(conn net.Conn) *BinaryClient {
	return NewBinaryClientOptions(conn, Options{})
}

// NewBinaryClientOptions wraps an existing connection with options.
func NewBinaryClientOptions(conn net.Conn, o Options) *BinaryClient {
	return &BinaryClient{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, 64<<10),
		w:         bufio.NewWriterSize(conn, 64<<10),
		opTimeout: o.OpTimeout,
	}
}

func (b *BinaryClient) takeOpaque() uint32 {
	b.opaque++
	return b.opaque
}

func (b *BinaryClient) armRead() {
	if b.opTimeout > 0 {
		b.conn.SetReadDeadline(clock.Deadline(b.opTimeout)) // deadline arming cannot usefully fail mid-op; the read reports any connection error
	}
}

func (b *BinaryClient) flush() error {
	if b.opTimeout > 0 {
		b.conn.SetWriteDeadline(clock.Deadline(b.opTimeout)) // deadline arming cannot usefully fail mid-op; the flush reports any connection error
	}
	return b.w.Flush()
}

// writeRequest buffers one request frame and returns its opaque. The
// vbucket field carries the per-op replication mode (see
// protocol.ReplMode).
func (b *BinaryClient) writeRequest(opcode byte, key string, extras, value []byte, vbucket uint16) uint32 {
	opaque := b.takeOpaque()
	hdr := &b.wHdr
	hdr[0] = protocol.MagicRequest
	hdr[1] = opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(key)))
	hdr[4] = byte(len(extras))
	binary.BigEndian.PutUint16(hdr[6:], vbucket)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(hdr[12:], opaque)
	b.w.Write(hdr[:])
	b.w.Write(extras)
	b.w.WriteString(key)
	b.w.Write(value)
	return opaque
}

// binResp is one parsed response frame.
type binResp struct {
	status uint16
	opaque uint32
	value  []byte
}

func (b *BinaryClient) readResponse() (binResp, error) {
	hdr := &b.rHdr
	b.armRead()
	if _, err := io.ReadFull(b.r, hdr[:]); err != nil {
		return binResp{}, err
	}
	if hdr[0] != protocol.MagicResponse {
		return binResp{}, fmt.Errorf("%w: bad response magic 0x%02x", ErrProtocol, hdr[0])
	}
	keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
	extLen := int(hdr[4])
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if bodyLen > maxBinaryRespBody || extLen+keyLen > bodyLen {
		return binResp{}, fmt.Errorf("%w: bad response framing (body %d, extras %d, key %d)",
			ErrProtocol, bodyLen, extLen, keyLen)
	}
	body := make([]byte, bodyLen)
	b.armRead()
	if _, err := io.ReadFull(b.r, body); err != nil {
		return binResp{}, err
	}
	return binResp{
		status: binary.BigEndian.Uint16(hdr[6:]),
		opaque: binary.BigEndian.Uint32(hdr[12:]),
		value:  body[extLen+keyLen:],
	}, nil
}

// statusErr maps a non-OK response status onto the package's sentinel
// errors, so callers switch on the same values for both protocols.
func statusErr(status uint16, value []byte) error {
	switch status {
	case protocol.StatusOK:
		return nil
	case protocol.StatusKeyNotFound:
		return ErrNotFound
	case protocol.StatusNotStored:
		return ErrNotStored
	case protocol.StatusBusy:
		return ErrBusy
	case protocol.StatusNoQuorum:
		return ErrNoQuorum
	case protocol.StatusInvalidArgs, protocol.StatusValueTooLarge, protocol.StatusNonNumeric:
		return fmt.Errorf("%w: status 0x%04x %s", ErrClient, status, value)
	case protocol.StatusUnknownCommand:
		return fmt.Errorf("%w: status 0x%04x %s", ErrProtocol, status, value)
	default:
		return fmt.Errorf("%w: status 0x%04x %s", ErrServer, status, value)
	}
}

// roundTrip sends one buffered request and reads its response, checking
// the echoed opaque so a desynchronized stream fails loudly.
func (b *BinaryClient) roundTrip(opaque uint32) (binResp, error) {
	if err := b.flush(); err != nil {
		return binResp{}, err
	}
	resp, err := b.readResponse()
	if err != nil {
		return binResp{}, err
	}
	if resp.opaque != opaque {
		return binResp{}, fmt.Errorf("%w: response opaque 0x%08x for request 0x%08x (stream desynchronized)",
			ErrProtocol, resp.opaque, opaque)
	}
	return resp, nil
}

// Get fetches one key; ErrNotFound on miss.
func (b *BinaryClient) Get(key string) (Item, error) {
	opaque := b.writeRequest(protocol.OpGet, key, nil, nil, 0)
	resp, err := b.roundTrip(opaque)
	if err != nil {
		return Item{}, err
	}
	if err := statusErr(resp.status, resp.value); err != nil {
		return Item{}, err
	}
	return Item{Key: key, Value: resp.value}, nil
}

// GetMulti fetches several keys in one pipelined round trip; missing
// keys are simply absent from the result.
func (b *BinaryClient) GetMulti(keys []string) (map[string]Item, error) {
	// The result map de-duplicates: each distinct key is requested once,
	// holding a placeholder until its response fills or deletes it.
	out := make(map[string]Item, len(keys))
	b.keys, b.opaques = b.keys[:0], b.opaques[:0]
	for _, k := range keys {
		if _, dup := out[k]; dup || k == "" {
			continue
		}
		out[k] = Item{}
		b.keys = append(b.keys, k)
		// Non-quiet gets answer in request order, so the i-th response
		// is the i-th key; opaques double-check the pairing.
		b.opaques = append(b.opaques, b.writeRequest(protocol.OpGet, k, nil, nil, 0))
	}
	if len(b.keys) == 0 {
		return out, nil
	}
	if err := b.flush(); err != nil {
		return nil, err
	}
	for i, k := range b.keys {
		resp, err := b.readResponse()
		if err != nil {
			return nil, err
		}
		if resp.opaque != b.opaques[i] {
			return nil, fmt.Errorf("%w: response opaque 0x%08x for request 0x%08x (stream desynchronized)",
				ErrProtocol, resp.opaque, b.opaques[i])
		}
		serr := statusErr(resp.status, resp.value)
		if errors.Is(serr, ErrNotFound) {
			delete(out, k)
			continue
		}
		if serr != nil {
			return nil, serr
		}
		out[k] = Item{Key: k, Value: resp.value}
	}
	return out, nil
}

// Set stores a value unconditionally with the server's default
// replication mode.
func (b *BinaryClient) Set(key string, value []byte, flags uint32, exptime int64) error {
	return b.SetWithMode(key, value, flags, exptime, protocol.ReplDefault)
}

// SetWithMode stores a value with an explicit per-op replication mode,
// carried in the request's vbucket field. ReplQuorum returns
// ErrNoQuorum when the server stored locally but could not gather
// majority replica acknowledgement — the write is unacknowledged and
// safe to retry.
func (b *BinaryClient) SetWithMode(key string, value []byte, flags uint32, exptime int64, mode protocol.ReplMode) error {
	var extras [8]byte
	binary.BigEndian.PutUint32(extras[:], flags)
	binary.BigEndian.PutUint32(extras[4:], uint32(exptime))
	opaque := b.writeRequest(protocol.OpSet, key, extras[:], value, uint16(mode))
	resp, err := b.roundTrip(opaque)
	if err != nil {
		return err
	}
	return statusErr(resp.status, resp.value)
}

// DeleteWithMode removes a key with a per-op replication mode, as on
// SetWithMode; ErrNotFound when the key is absent.
func (b *BinaryClient) DeleteWithMode(key string, mode protocol.ReplMode) error {
	opaque := b.writeRequest(protocol.OpDelete, key, nil, nil, uint16(mode))
	resp, err := b.roundTrip(opaque)
	if err != nil {
		return err
	}
	return statusErr(resp.status, resp.value)
}

// TouchWithMode updates a key's TTL with a per-op replication mode, as
// on SetWithMode; ErrNotFound when the key is absent.
func (b *BinaryClient) TouchWithMode(key string, exptime int64, mode protocol.ReplMode) error {
	var extras [4]byte
	binary.BigEndian.PutUint32(extras[:], uint32(exptime))
	opaque := b.writeRequest(protocol.OpTouch, key, extras[:], nil, uint16(mode))
	resp, err := b.roundTrip(opaque)
	if err != nil {
		return err
	}
	return statusErr(resp.status, resp.value)
}

// FlushWithMode invalidates the whole cache after delay seconds (0 =
// now) with a per-op replication mode, as on SetWithMode. A zero delay
// sends no extras; a non-zero delay rides the optional 4-byte extras
// field.
func (b *BinaryClient) FlushWithMode(delay int64, mode protocol.ReplMode) error {
	var extras []byte
	if delay != 0 {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(delay))
		extras = buf[:]
	}
	opaque := b.writeRequest(protocol.OpFlush, "", extras, nil, uint16(mode))
	resp, err := b.roundTrip(opaque)
	if err != nil {
		return err
	}
	return statusErr(resp.status, resp.value)
}

// Close sends quit and closes the connection (same contract as
// Client.Close: the farewell is best-effort but its error is reported).
func (b *BinaryClient) Close() error {
	b.writeRequest(protocol.OpQuit, "", nil, nil, 0)
	ferr := b.flush()
	return errors.Join(ferr, b.conn.Close())
}
