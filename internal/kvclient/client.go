// Package kvclient is a minimal memcached client, ASCII (Client) and
// binary (BinaryClient), used by the load generator, the cluster
// example, a server's replica links (DialReplica) and the end-to-end
// tests. One client wraps one TCP connection; it is not safe for
// concurrent use (open one per goroutine, as memcached clients
// typically do).
package kvclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"kv3d/internal/clock"
)

// Common protocol-level results.
var (
	ErrNotFound  = errors.New("kvclient: not found")
	ErrNotStored = errors.New("kvclient: not stored")
	ErrServer    = errors.New("kvclient: server error")
	ErrClient    = errors.New("kvclient: client error")
	ErrProtocol  = errors.New("kvclient: protocol error")
)

// ErrBusy is the load-shedding refusal ("SERVER_ERROR busy", binary
// StatusBusy): the node is alive but turned the work away — kv3d-server
// over its -max-conns, or another memcached server shedding load. It
// wraps ErrServer, so existing error checks still match; retry logic
// treats it as retryable but not as evidence the node is down.
var ErrBusy = fmt.Errorf("%w: busy", ErrServer)

// ErrNoQuorum is a quorum write that stored on the primary but could
// not gather majority replica acknowledgement in time. The write is not
// rolled back; the op is unacknowledged and safe to retry (a set is
// idempotent). Wraps ErrServer so existing checks still match.
var ErrNoQuorum = fmt.Errorf("%w: no quorum", ErrServer)

// Options tunes a Client beyond the bare connection.
type Options struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// OpTimeout bounds each protocol operation: the connection's read
	// and write deadlines are re-armed at the start of every request and
	// response, so a stalled or dead server surfaces as a timeout error
	// instead of a hung goroutine. Zero means no deadline (the seed
	// behaviour).
	OpTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// Client is a single-connection memcached client.
type Client struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	opTimeout time.Duration
}

// Dial connects to a memcached server address.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects with full option control.
func DialOptions(addr string, o Options) (*Client, error) {
	o = o.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, err
	}
	return NewClientOptions(conn, o), nil
}

// NewClient wraps an existing connection.
func NewClient(conn net.Conn) *Client {
	return NewClientOptions(conn, Options{})
}

// NewClientOptions wraps an existing connection with options applied.
func NewClientOptions(conn net.Conn, o Options) *Client {
	return &Client{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, 64<<10),
		w:         bufio.NewWriterSize(conn, 64<<10),
		opTimeout: o.OpTimeout,
	}
}

// armRead re-arms the read deadline for the next response read. Called
// before every read so a multi-line response gets a fresh budget per
// read, not one shared budget for the whole operation.
func (c *Client) armRead() {
	if c.opTimeout > 0 {
		c.conn.SetReadDeadline(clock.Deadline(c.opTimeout)) // deadline arming cannot usefully fail mid-op; the read reports any connection error
	}
}

// armWrite arms the write deadline before buffering a request whose
// bytes can spill to the connection before flush (a value larger than
// the buffer flushes mid-Write).
func (c *Client) armWrite() {
	if c.opTimeout > 0 {
		c.conn.SetWriteDeadline(clock.Deadline(c.opTimeout)) // deadline arming cannot usefully fail mid-op; the write reports any connection error
	}
}

// flush arms the write deadline and flushes the buffered request.
func (c *Client) flush() error {
	if c.opTimeout > 0 {
		c.conn.SetWriteDeadline(clock.Deadline(c.opTimeout)) // deadline arming cannot usefully fail mid-op; the flush reports any connection error
	}
	return c.w.Flush()
}

// Close sends quit and closes the connection. A flush failure is
// reported alongside the close result: the quit is best-effort, but a
// caller diagnosing a broken connection needs to see the write error,
// not just the close status. With OpTimeout set the farewell flush is
// bounded, so Close cannot hang on a stalled peer.
func (c *Client) Close() error {
	fmt.Fprint(c.w, "quit\r\n")
	ferr := c.flush()
	return errors.Join(ferr, c.conn.Close())
}

func (c *Client) readLine() (string, error) {
	c.armRead()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func classify(line string) error {
	switch {
	case line == "ERROR":
		return ErrProtocol
	case strings.HasPrefix(line, "CLIENT_ERROR"):
		return fmt.Errorf("%w: %s", ErrClient, line)
	case line == "SERVER_ERROR busy":
		return ErrBusy
	case strings.HasPrefix(line, "SERVER_ERROR"):
		return fmt.Errorf("%w: %s", ErrServer, line)
	default:
		return fmt.Errorf("%w: unexpected %q", ErrProtocol, line)
	}
}

// Item is a fetched value.
type Item struct {
	Key   string
	Value []byte
}

// Set stores a value unconditionally.
func (c *Client) Set(key string, value []byte, flags uint32, exptime int64) error {
	c.armWrite()
	fmt.Fprintf(c.w, "set %s %d %d %d\r\n", key, flags, exptime, len(value))
	c.w.Write(value)
	c.w.WriteString("\r\n")
	if err := c.flush(); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	switch line {
	case "STORED":
		return nil
	case "NOT_STORED":
		return ErrNotStored
	default:
		return classify(line)
	}
}

// Get fetches one key; ErrNotFound on miss.
func (c *Client) Get(key string) (Item, error) {
	items, err := c.getMulti([]string{key})
	if err != nil {
		return Item{}, err
	}
	if len(items) == 0 {
		return Item{}, ErrNotFound
	}
	return items[0], nil
}

// GetMulti fetches several keys in one round trip; missing keys are
// simply absent from the result.
func (c *Client) GetMulti(keys []string) (map[string]Item, error) {
	items, err := c.getMulti(keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Item, len(items))
	for _, it := range items {
		out[it.Key] = it
	}
	return out, nil
}

func (c *Client) getMulti(keys []string) ([]Item, error) {
	// A zero-key multiget would serialize as "get \r\n" — a malformed
	// request the server answers with ERROR, leaving the caller with a
	// protocol error for what is semantically an empty result. The same
	// applies to empty-string keys, and duplicate keys make the server
	// answer (and ship) the same value twice. Normalize before writing.
	unique := keys
	if len(keys) > 1 {
		seen := make(map[string]struct{}, len(keys))
		unique = make([]string, 0, len(keys))
		for _, k := range keys {
			if _, dup := seen[k]; dup || k == "" {
				continue
			}
			seen[k] = struct{}{}
			unique = append(unique, k)
		}
	} else if len(keys) == 1 && keys[0] == "" {
		unique = nil
	}
	if len(unique) == 0 {
		return nil, nil
	}
	c.armWrite()
	c.w.WriteString("get")
	for _, k := range unique {
		c.w.WriteByte(' ')
		c.w.WriteString(k)
	}
	c.w.WriteString("\r\n")
	if err := c.flush(); err != nil {
		return nil, err
	}
	var items []Item
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return items, nil
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "VALUE" {
			return nil, classify(line)
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad length %q", ErrProtocol, fields[3])
		}
		buf := make([]byte, n+2)
		c.armRead()
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, err
		}
		// The two bytes after the value must be the \r\n terminator. If
		// they are anything else the advertised length was wrong and the
		// stream is desynchronized — every later response would be parsed
		// against the wrong framing, so fail loudly instead.
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return nil, fmt.Errorf("%w: value for %q not terminated by CRLF (stream desynchronized)", ErrProtocol, fields[1])
		}
		items = append(items, Item{Key: fields[1], Value: buf[:n]})
	}
}

// Delete removes a key.
func (c *Client) Delete(key string) error {
	fmt.Fprintf(c.w, "delete %s\r\n", key)
	if err := c.flush(); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	switch line {
	case "DELETED":
		return nil
	case "NOT_FOUND":
		return ErrNotFound
	default:
		return classify(line)
	}
}

// Incr increments a numeric value.
func (c *Client) Incr(key string, delta uint64) (uint64, error) {
	fmt.Fprintf(c.w, "incr %s %d\r\n", key, delta)
	if err := c.flush(); err != nil {
		return 0, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	if line == "NOT_FOUND" {
		return 0, ErrNotFound
	}
	v, perr := strconv.ParseUint(line, 10, 64)
	if perr != nil {
		return 0, classify(line)
	}
	return v, nil
}

// Stats fetches the server's STAT map.
func (c *Client) Stats() (map[string]string, error) {
	fmt.Fprint(c.w, "stats\r\n")
	if err := c.flush(); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return out, nil
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 || fields[0] != "STAT" {
			return nil, classify(line)
		}
		out[fields[1]] = fields[2]
	}
}

// Version queries the server version string.
func (c *Client) Version() (string, error) {
	fmt.Fprint(c.w, "version\r\n")
	if err := c.flush(); err != nil {
		return "", err
	}
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, "VERSION ") {
		return "", classify(line)
	}
	return strings.TrimPrefix(line, "VERSION "), nil
}
