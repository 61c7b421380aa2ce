package kvserver

// Large single-key GET hits leave a server connection pinned: the value
// is written from its slab chunk by one vectored write instead of being
// copied into the session's buffers. These tests hold that path to the
// copy path byte for byte on every transport a server runs a session
// over, and check under concurrent writers that a reply only ever
// carries a value some write stored.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
)

// pinScriptSizes straddle the pin threshold on both sides and reach
// well past what one socket write or one bufio buffer holds.
var pinScriptSizes = []int{0, 100, 16<<10 - 1, 16 << 10, 64 << 10, 100_003, 500 << 10}

func pinValue(i, n int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte('a' + (i*7+j)%26)
	}
	return v
}

// asciiPinScript stores one value per size, then reads each back with
// get and gets, pipelined behind and ahead of other replies. Then come
// multi-key gets: a gets of values under the pin threshold whose copies
// cross it, and gets where a value sent pinned is followed by a pinned
// value, by a miss, or by nothing. Then it quits.
func asciiPinScript() []byte {
	var b bytes.Buffer
	for i, n := range pinScriptSizes {
		fmt.Fprintf(&b, "set k%d %d 0 %d\r\n%s\r\n", i, i+1, n, pinValue(i, n))
	}
	for i := range pinScriptSizes {
		fmt.Fprintf(&b, "get k%d\r\ngets k%d\r\nversion\r\n", i, i)
	}
	b.WriteString("gets k1 k2 k1 k2 k0 absent\r\nget k3 k4 absent k5\r\nget k6 absent\r\nget absent\r\nquit\r\n")
	return b.Bytes()
}

// binaryPinScript is the binary twin: every opcode of the get family
// on every size, a quiet miss and a noop between them.
func binaryPinScript() []byte {
	var b []byte
	for i, n := range pinScriptSizes {
		extras := []byte{0, 0, 0, byte(i + 1), 0, 0, 0, 0}
		b = append(b, binFrame(protocol.OpSet, uint32(i), extras, fmt.Appendf(nil, "k%d", i), pinValue(i, n))...)
	}
	for i := range pinScriptSizes {
		key := fmt.Appendf(nil, "k%d", i)
		for _, op := range []byte{protocol.OpGet, protocol.OpGetK, protocol.OpGetQ, protocol.OpGetKQ} {
			b = append(b, binFrame(op, uint32(100+i), nil, key, nil)...)
		}
		b = append(b, binFrame(protocol.OpGetQ, 7, nil, []byte("absent"), nil)...)
		b = append(b, binFrame(protocol.OpNoop, 8, nil, nil, nil)...)
	}
	return append(b, binFrame(protocol.OpQuit, 9, nil, nil, nil)...)
}

func newPinStore(t *testing.T) *kvstore.Store {
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// copyPathReplies serves script through a session on a caller's
// buffered pair, which has no transport to send pinned values to.
func copyPathReplies(t *testing.T, script []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(script), &out}
	st := newPinStore(t)
	var err error
	if script[0] == protocol.MagicRequest {
		err = protocol.NewBinarySession(st, rw).Serve()
	} else {
		err = protocol.NewSession(st, rw).Serve()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// exchange writes script to conn while reading every reply until the
// server closes the connection.
func exchange(t *testing.T, conn net.Conn, script []byte) []byte {
	t.Helper()
	defer conn.Close()
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(script)
		wrote <- err
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPinnedRepliesMatchCopyPath serves the same scripts pinned over
// loopback TCP (writev), over TCP with an idle timeout armed and over
// net.Pipe (which takes net.Buffers' one write per buffer), and
// requires each reply stream to equal the copy path's.
func TestPinnedRepliesMatchCopyPath(t *testing.T) {
	transports := map[string]func(t *testing.T) net.Conn{
		"tcp": func(t *testing.T) net.Conn {
			return dialPinServer(t, Options{})
		},
		"idle-timeout": func(t *testing.T) net.Conn {
			return dialPinServer(t, Options{IdleTimeout: time.Minute})
		},
		"pipe": func(t *testing.T) net.Conn {
			client, server := net.Pipe()
			st := newPinStore(t)
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer server.Close()
				if err := protocol.ServeConnIdle(st, server, protocol.Env{}, 0); err != nil {
					t.Error(err)
				}
			}()
			t.Cleanup(func() { <-done })
			return client
		},
	}
	scripts := map[string][]byte{"ascii": asciiPinScript(), "binary": binaryPinScript()}
	for codec, script := range scripts {
		want := copyPathReplies(t, script)
		for name, dial := range transports {
			t.Run(codec+"/"+name, func(t *testing.T) {
				got := exchange(t, dial(t), script)
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("pinned replies differ from the copy path at byte %d of %d (copy path: %d bytes)", i, len(got), len(want))
				}
			})
		}
	}
}

// TestIdleTimeoutKeepsPinnedGetOneWrite: with an idle timeout set, a
// pinned 64 KiB binary GET still costs the server one write syscall.
// The deadline used to be armed by a wrapper around the connection,
// which hid net's own conn type from net.Buffers and so split every
// reply into one write per buffer. The count is this process's write
// syscalls (/proc/self/io syscw) less the client's one per request.
func TestIdleTimeoutKeepsPinnedGetOneWrite(t *testing.T) {
	conn := dialPinServer(t, Options{IdleTimeout: time.Minute})
	defer conn.Close()
	value := pinValue(0, 64<<10)
	set := binFrame(protocol.OpSet, 1, make([]byte, 8), []byte("k"), value)
	get := binFrame(protocol.OpGet, 2, nil, []byte("k"), nil)
	reply := make([]byte, 24+4+len(value)) // header, flags, value
	roundTrip := func(req, resp []byte) {
		t.Helper()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(set, reply[:24])
	for i := 0; i < 50; i++ { // let the socket buffers grow first
		roundTrip(get, reply)
	}
	const gets = 500
	before := syscw(t)
	for i := 0; i < gets; i++ {
		roundTrip(get, reply)
	}
	if !bytes.Equal(reply[28:], value) {
		t.Fatal("GET returned a different value")
	}
	perGet := float64(syscw(t)-before-gets) / gets
	if perGet > 1.5 {
		t.Fatalf("server write syscalls per pinned GET with an idle timeout = %.2f, want 1", perGet)
	}
}

// syscw is this process's write syscall count so far; it skips the
// test where /proc/self/io cannot be read.
func syscw(t *testing.T) uint64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("cannot count write syscalls: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("no syscw row in /proc/self/io")
	return 0
}

func dialPinServer(t *testing.T, opts Options) net.Conn {
	t.Helper()
	srv := NewWithOptions(newPinStore(t), nil, opts)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// Values the concurrent test stores: a 12-byte header — key index,
// stored length, and the write's identity, one of racyIDs — then a body
// derived from the identity, then any bytes appends added ('+'). Every
// length falls in one slab class, so a set of another length rewrites
// a chunk in place unless a pin stops it.
const (
	racyKeys   = 3
	racyIDs    = 16
	racyMinLen = 96_000
	racyMaxLen = 119_000
	racyHeader = 12
)

// racyBodies holds each identity's body, built once: the writers copy
// rather than compute, so that under the race detector they still
// store fast enough to meet the readers.
var racyBodies = sync.OnceValue(func() (b [racyIDs][]byte) {
	for id := range b {
		b[id] = make([]byte, racyMaxLen)
		for i := range b[id] {
			b[id][i] = byte(i*31) ^ byte(id)
		}
	}
	return b
})

func racyValue(key, n int, id byte) []byte {
	v := append([]byte(nil), racyBodies()[id%racyIDs][:n]...)
	binary.BigEndian.PutUint32(v, uint32(key))
	binary.BigEndian.PutUint32(v[4:], uint32(n))
	v[8] = id % racyIDs
	return v
}

// checkRacy reports why v is not a value some write of key stored, or
// "" if it is.
func checkRacy(key int, v []byte) string {
	if len(v) < racyHeader {
		return fmt.Sprintf("%d bytes, shorter than the header", len(v))
	}
	n := int(binary.BigEndian.Uint32(v[4:]))
	switch {
	case int(binary.BigEndian.Uint32(v)) != key:
		return fmt.Sprintf("header names key %d", binary.BigEndian.Uint32(v))
	case n < racyMinLen || n > len(v):
		return fmt.Sprintf("header says %d bytes, the reply carries %d", n, len(v))
	case strings.Trim(string(v[n:]), "+") != "":
		return "bytes past the stored length are not appends"
	}
	id := int(v[8])
	if id >= racyIDs {
		return fmt.Sprintf("header names write %d", id)
	}
	if body := racyBodies()[id]; !bytes.Equal(v[racyHeader:n], body[racyHeader:n]) {
		return fmt.Sprintf("the body of %d bytes is not write %d's", n, id)
	}
	return ""
}

// TestPinnedGetsUnderConcurrentWrites runs large binary and ASCII GETs,
// single- and multi-key, over loopback TCP against writers doing same-key, same-class sets,
// deletes, flush_all, appends and (failing, non-numeric) incrs. The
// server's send buffers are shrunk, so a pinned send can wait part-way
// while the writers reach for its chunk. Every hit must be a value some
// write stored. How many gets hit depends on how the scheduler
// interleaves the writers' deletes and flush_alls with them, so each
// reader gets until it has counted its share of a floor of hits, and a
// reader that reaches the cap of gets first fails the test.
func TestPinnedGetsUnderConcurrentWrites(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(newPinStore(t), nil)
	go srv.ServeOn(smallSendBuffers{ln})
	t.Cleanup(func() { srv.Close() })
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	keyName := func(key int) string { return fmt.Sprintf("racy%d", key) }
	type getter func(key int) ([]byte, error)
	var readers []getter
	var clients []io.Closer
	for i := 0; i < 2; i++ {
		b := kvclient.NewBinaryClient(dial())
		a := kvclient.NewClient(dial())
		m := kvclient.NewClient(dial())
		clients = append(clients, a, b, m)
		readers = append(readers,
			func(key int) ([]byte, error) { it, err := b.Get(keyName(key)); return it.Value, err },
			func(key int) ([]byte, error) { it, err := a.Get(keyName(key)); return it.Value, err },
			// One multi-key get: two values sent pinned around a miss.
			func(key int) ([]byte, error) {
				next := (key + 1) % racyKeys
				items, err := m.GetMulti([]string{keyName(key), "absent", keyName(next)})
				if err != nil {
					return nil, err
				}
				if it, ok := items[keyName(next)]; ok {
					if why := checkRacy(next, it.Value); why != "" {
						return nil, fmt.Errorf("%s: %s", keyName(next), why)
					}
				}
				it, ok := items[keyName(key)]
				if !ok {
					return nil, kvclient.ErrNotFound
				}
				return it.Value, nil
			})
	}

	seed := kvclient.NewBinaryClient(dial())
	clients = append(clients, seed)
	for key := 0; key < racyKeys; key++ {
		if err := seed.Set(keyName(key), racyValue(key, racyMinLen, 0), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	const getsPerReader, maxGetsPerReader = 30, 1000
	floor := len(readers) * getsPerReader / 4
	share := (floor + len(readers) - 1) / len(readers)
	stop := make(chan struct{})
	var writers, wg sync.WaitGroup
	var hits atomic.Int64
	for w := 0; w < 2; w++ {
		a := kvclient.NewClient(dial())
		b := kvclient.NewBinaryClient(dial())
		raw := dial()
		clients = append(clients, a, b, raw)
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			rr := bufio.NewReader(raw)
			// rawCmd sends an ASCII verb the client does not speak and
			// maps its one-line reply onto the client's errors.
			rawCmd := func(req string) error {
				if _, err := io.WriteString(raw, req); err != nil {
					return err
				}
				line, err := rr.ReadString('\n')
				switch {
				case err != nil:
					return err
				case line == "STORED\r\n" || line == "OK\r\n":
					return nil
				case line == "NOT_STORED\r\n":
					return kvclient.ErrNotStored
				}
				return fmt.Errorf("reply %q", line)
			}
			for id := byte(seed); ; id++ {
				select {
				case <-stop:
					return
				default:
				}
				key := rng.Intn(racyKeys)
				name := keyName(key)
				var err error
				switch r := rng.Intn(100); {
				case r < 40:
					err = a.Set(name, racyValue(key, racyMinLen+rng.Intn(racyMaxLen-racyMinLen), id), 0, 0)
				case r < 80:
					err = b.Set(name, racyValue(key, racyMinLen+rng.Intn(racyMaxLen-racyMinLen), id), 0, 0)
				case r < 90:
					n := 1 + rng.Intn(64)
					err = rawCmd(fmt.Sprintf("append %s 0 0 %d\r\n%s\r\n", name, n, bytes.Repeat([]byte{'+'}, n)))
				case r < 94:
					err = a.Delete(name)
				case r < 99:
					_, err = a.Incr(name, 1)
				default:
					err = rawCmd("flush_all\r\n")
				}
				if err != nil && !errors.Is(err, kvclient.ErrNotFound) && !errors.Is(err, kvclient.ErrNotStored) &&
					!strings.Contains(err.Error(), "non-numeric") {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	for i, get := range readers {
		wg.Add(1)
		go func(i int, get getter) {
			defer wg.Done()
			for n, mine := 0, 0; mine < share; n++ {
				if n == maxGetsPerReader {
					t.Errorf("reader %d: %d of %d gets hit, want %d", i, mine, n, share)
					return
				}
				key := (i + n) % racyKeys
				v, err := get(key)
				if errors.Is(err, kvclient.ErrNotFound) {
					continue
				}
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				hits.Add(1)
				mine++
				if why := checkRacy(key, v); why != "" {
					t.Errorf("reader %d, get %d of racy%d: %s", i, n, key, why)
					return
				}
			}
		}(i, get)
	}
	wg.Wait()
	close(stop)
	writers.Wait()
	if n := hits.Load(); n < int64(floor) {
		t.Fatalf("only %d gets hit, want at least %d; too few pinned sends to tell", n, floor)
	}
	// Every pin has been released: once the sessions have ended and the
	// keys are gone, so is every chunk, unlinked ones included. A reader
	// holds its whole reply before the session that sent it unpins, so
	// the store is read only after Close has waited for every handler.
	for _, c := range clients {
		c.Close() // the sessions end either way; Close below joins them
	}
	srv.Close()
	st := srv.store
	for key := 0; key < racyKeys; key++ {
		st.Delete(fmt.Sprintf("racy%d", key))
	}
	s := st.Stats()
	used := 0
	for _, c := range s.Classes {
		used += c.UsedChunks
	}
	if s.BytesUsed != 0 || s.CurrItems != 0 || used != 0 {
		t.Fatalf("after deleting every key: %d bytes, %d items, %d chunks in use", s.BytesUsed, s.CurrItems, used)
	}
}

// smallSendBuffers shrinks the send buffer of every connection it
// accepts to less than a value, so a pinned send waits for the reader
// part-way. The connection is handed on as
// the *net.TCPConn it is, which keeps the server's writev path.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		conn.(*net.TCPConn).SetWriteBuffer(32 << 10)
	}
	return conn, err
}

// TestReservedSetReadersSeeOldOrNew sends a 256 KiB set in slow pieces,
// in each codec, while readers on other connections get the key over
// and over. The value is read straight into the chunk the store
// reserved for it, so until the set is committed the readers must keep
// getting the old value, whole, and afterwards the new one — never a
// mix, and never a miss.
func TestReservedSetReadersSeeOldOrNew(t *testing.T) {
	const key, size, pieces = "photo", 256 << 10, 16
	old, next := bytes.Repeat([]byte("o"), size), bytes.Repeat([]byte("n"), size)
	for _, bin := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", bin), func(t *testing.T) {
			st := newPinStore(t)
			if err := st.Set(key, old, 0, 0); err != nil {
				t.Fatal(err)
			}
			srv := New(st, nil)
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			go srv.Serve()
			t.Cleanup(func() { srv.Close() })
			addr := srv.Addr().String()

			var head, tail []byte
			if bin {
				frame := binFrame(protocol.OpSet, 1, make([]byte, 8), []byte(key), next)
				head = frame[:len(frame)-size]
			} else {
				head, tail = fmt.Appendf(nil, "set %s 0 0 %d\r\n", key, size), []byte("\r\n")
			}
			sending := make(chan struct{}) // closed once part of the value is in
			done := make(chan struct{})    // closed once the set is answered
			const readers = 4
			var wg sync.WaitGroup
			var oldWhileSending atomic.Int64
			errs := make(chan error, readers) // each reader sends at most one and returns
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := kvclient.Dial(addr)
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					for finished := false; !finished; {
						select {
						case <-done:
							finished = true // one more get, which must see the new value
						default:
						}
						it, err := c.Get(key)
						switch {
						case err != nil:
							errs <- fmt.Errorf("get: %v", err)
							return
						case bytes.Equal(it.Value, old):
							if finished {
								errs <- errors.New("the old value is still served after the set was answered")
								return
							}
							select {
							case <-sending:
								oldWhileSending.Add(1)
							default:
							}
						case !bytes.Equal(it.Value, next):
							errs <- fmt.Errorf("a get returned %d bytes that are neither value: %q...", len(it.Value), it.Value[:min(len(it.Value), 32)])
							return
						}
					}
				}()
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(head); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pieces; i++ {
				if _, err := conn.Write(next[i*size/pieces : (i+1)*size/pieces]); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					close(sending)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if _, err := conn.Write(tail); err != nil {
				t.Fatal(err)
			}
			reply := make([]byte, 8)
			if bin {
				reply = make([]byte, 24)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(conn, reply); err != nil {
				t.Fatal(err)
			}
			if bin && binary.BigEndian.Uint16(reply[6:]) != protocol.StatusOK || !bin && string(reply) != "STORED\r\n" {
				t.Fatalf("set reply %q", reply)
			}
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if oldWhileSending.Load() == 0 {
				t.Error("no reader got the old value while the new one was arriving")
			}
		})
	}
}
