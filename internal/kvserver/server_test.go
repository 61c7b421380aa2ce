package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/testutil"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	// Registered before the Close cleanup below, so it checks after the
	// server has shut down.
	testutil.CheckGoroutines(t)
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func TestEndToEndSetGet(t *testing.T) {
	_, addr := startServer(t)
	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("greeting", []byte("hello world"), 7, 0); err != nil {
		t.Fatal(err)
	}
	it, err := c.Get("greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "hello world" {
		t.Fatalf("item = %+v", it)
	}
}

func TestEndToEndMiss(t *testing.T) {
	_, addr := startServer(t)
	c, _ := kvclient.Dial(addr)
	defer c.Close()
	if _, err := c.Get("absent"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestEndToEndAllVerbs drives every ASCII storage and update verb over
// one raw connection, then the client's version and stats.
func TestEndToEndAllVerbs(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	// send writes one request and returns the first n lines of its reply.
	send := func(req string, n int) string {
		t.Helper()
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for i := 0; i < n; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: %v", req, err)
			}
			out.WriteString(line)
		}
		return out.String()
	}
	expect := func(req, want string) {
		t.Helper()
		if got := send(req, strings.Count(want, "\n")); got != want {
			t.Fatalf("%q: got %q, want %q", req, got, want)
		}
	}

	expect("add k 0 0 3\r\nmid\r\n", "STORED\r\n")
	expect("add k 0 0 1\r\nx\r\n", "NOT_STORED\r\n")
	expect("append k 0 0 2\r\n-b\r\n", "STORED\r\n")
	expect("prepend k 0 0 2\r\na-\r\n", "STORED\r\n")
	expect("get k\r\n", "VALUE k 0 7\r\na-mid-b\r\nEND\r\n")

	var cas uint64
	if _, err := fmt.Sscanf(send("gets k\r\n", 3), "VALUE k 0 7 %d", &cas); err != nil || cas == 0 {
		t.Fatalf("gets: %v cas=%d", err, cas)
	}
	expect(fmt.Sprintf("cas k 0 0 3 %d\r\nnew\r\n", cas), "STORED\r\n")
	expect(fmt.Sprintf("cas k 0 0 5 %d\r\nnewer\r\n", cas), "EXISTS\r\n")

	expect("set n 0 0 2\r\n41\r\n", "STORED\r\n")
	expect("incr n 1\r\n", "42\r\n")
	expect("decr n 2\r\n", "40\r\n")
	expect("touch n 1000\r\n", "TOUCHED\r\n")
	expect("delete n\r\n", "DELETED\r\n")
	expect("delete n\r\n", "NOT_FOUND\r\n")
	expect("flush_all\r\n", "OK\r\n")

	c, _ := kvclient.Dial(addr)
	defer c.Close()
	ver, err := c.Version()
	if err != nil || ver == "" {
		t.Fatalf("version: %q %v", ver, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["cmd_set"] == "" {
		t.Fatalf("stats missing cmd_set: %v", stats)
	}
}

func TestEndToEndGetMulti(t *testing.T) {
	_, addr := startServer(t)
	c, _ := kvclient.Dial(addr)
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)), 0, 0)
	}
	items, err := c.GetMulti([]string{"k0", "k2", "k4", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items", len(items))
	}
	if string(items["k2"].Value) != "v2" {
		t.Fatalf("k2 = %q", items["k2"].Value)
	}
}

func TestEndToEndLargeValue(t *testing.T) {
	_, addr := startServer(t)
	c, _ := kvclient.Dial(addr)
	defer c.Close()
	big := make([]byte, 512<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Set("big", big, 0, 0); err != nil {
		t.Fatal(err)
	}
	it, err := c.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Value) != len(big) {
		t.Fatalf("len = %d", len(it.Value))
	}
	for i := range big {
		if it.Value[i] != big[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestManyConcurrentClients(t *testing.T) {
	srv, addr := startServer(t)
	var wg sync.WaitGroup
	const clients = 16
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := kvclient.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := c.Set(key, []byte("v"), 0, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.Accepted() != clients {
		t.Fatalf("accepted = %d, want %d", srv.Accepted(), clients)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithIdleConnLogsNothing: Close ends an idle session by
// closing its connection under it, and the session's read then fails
// with net.ErrClosed. That is the server shutting down, not a fault in
// the connection, so nothing is logged for it.
func TestCloseWithIdleConnLogsNothing(t *testing.T) {
	testutil.CheckGoroutines(t)
	st, err := kvstore.New(kvstore.DefaultConfig(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer // written by the handler, read after Close has joined it
	srv := New(st, log.New(&logged, "", 0))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// One served request puts the session in its read of the next one.
	if _, err := io.WriteString(conn, "version\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if logged.Len() != 0 {
		t.Fatalf("Close with one idle connection logged %q, want nothing", logged.String())
	}
}

func TestServeBeforeListen(t *testing.T) {
	st, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv := New(st, nil)
	if err := srv.Serve(); err == nil {
		t.Fatal("Serve before Listen should error")
	}
}

func TestMaxConnsLimit(t *testing.T) {
	st, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv := NewWithOptions(st, nil, Options{MaxConns: 2})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	c1, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Exercise both so the server definitely registered them.
	c1.Set("a", []byte("1"), 0, 0)
	c2.Set("b", []byte("2"), 0, 0)

	// The third connection gets accepted by the kernel then closed by
	// the server; any operation on it must fail.
	c3, err := kvclient.Dial(addr)
	if err == nil {
		defer c3.Close()
		if err := c3.Set("c", []byte("3"), 0, 0); err == nil {
			t.Fatal("third connection should have been rejected")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for probeValue(srv.Probes(), "live.server.rejected.max_conns") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejected counter never bumped")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestIdleTimeoutClosesConnection(t *testing.T) {
	st, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv := NewWithOptions(st, nil, Options{IdleTimeout: 50 * time.Millisecond})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c, err := kvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // exceed the idle timeout
	if _, err := c.Get("k"); err == nil {
		t.Fatal("idle connection should have been closed by the server")
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after idle close", srv.Active())
	}
}

func TestBinaryProtocolOverTCP(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Binary SET k=v then GET, hand-framed.
	set := make([]byte, 24+8+1+1)
	set[0] = 0x80
	set[1] = 0x01                          // set
	binary.BigEndian.PutUint16(set[2:], 1) // key len
	set[4] = 8                             // extras len
	binary.BigEndian.PutUint32(set[8:], 8+1+1)
	copy(set[24+8:], "k")
	set[24+8+1] = 'v'
	get := make([]byte, 24+1)
	get[0] = 0x80
	binary.BigEndian.PutUint16(get[2:], 1)
	binary.BigEndian.PutUint32(get[8:], 1)
	copy(get[24:], "k")
	if _, err := conn.Write(append(set, get...)); err != nil {
		t.Fatal(err)
	}
	// Read the SET response (24B) and GET response (24+4+1).
	resp := make([]byte, 24+24+4+1)
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if resp[0] != 0x81 {
		t.Fatalf("response magic %#x", resp[0])
	}
	if status := binary.BigEndian.Uint16(resp[6:]); status != 0 {
		t.Fatalf("set status %d", status)
	}
	getResp := resp[24:]
	if status := binary.BigEndian.Uint16(getResp[6:]); status != 0 {
		t.Fatalf("get status %d", status)
	}
	if got := getResp[24+4]; got != 'v' {
		t.Fatalf("value byte %q", got)
	}
}

// TestCloseReleasesAllGoroutines exercises the server lifecycle
// explicitly: the leak check registered by startServer (which runs
// after every cleanup) is the assertion — the accept loop and the
// per-connection handlers must all exit once Close returns.
func TestCloseReleasesAllGoroutines(t *testing.T) {
	_, addr := startServer(t)

	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	c.Close()
}
