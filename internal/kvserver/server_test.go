package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
	// server (and any UDP listener the test added) has shut down.
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
	if string(it.Value) != "hello world" || it.Flags != 7 {
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

func TestEndToEndAllVerbs(t *testing.T) {
	_, addr := startServer(t)
	c, _ := kvclient.Dial(addr)
	defer c.Close()

	if err := c.Add("k", []byte("mid"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("k", []byte("x"), 0, 0); !errors.Is(err, kvclient.ErrNotStored) {
		t.Fatalf("dup add: %v", err)
	}
	if err := c.Append("k", []byte("-b")); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepend("k", []byte("a-")); err != nil {
		t.Fatal(err)
	}
	it, _ := c.Get("k")
	if string(it.Value) != "a-mid-b" {
		t.Fatalf("value = %q", it.Value)
	}

	gitem, err := c.Gets("k")
	if err != nil || gitem.CAS == 0 {
		t.Fatalf("gets: %v cas=%d", err, gitem.CAS)
	}
	if err := c.CAS("k", []byte("new"), 0, 0, gitem.CAS); err != nil {
		t.Fatalf("cas: %v", err)
	}
	if err := c.CAS("k", []byte("newer"), 0, 0, gitem.CAS); !errors.Is(err, kvclient.ErrExists) {
		t.Fatalf("stale cas: %v", err)
	}

	c.Set("n", []byte("41"), 0, 0)
	if v, err := c.Incr("n", 1); err != nil || v != 42 {
		t.Fatalf("incr: %d %v", v, err)
	}
	if v, err := c.Decr("n", 2); err != nil || v != 40 {
		t.Fatalf("decr: %d %v", v, err)
	}
	if err := c.Touch("n", 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("n"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("n"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}

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

	if err := c.FlushAll(0); err != nil {
		t.Fatal(err)
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
	for srv.Rejected() == 0 {
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

func TestUDPGetRoundTrip(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	srv.Store().Set("udp-key", []byte("udp-value"), 9, 0)

	c, err := kvclient.DialUDP(udp.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	it, err := c.Get("udp-key")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "udp-value" || it.Flags != 9 {
		t.Fatalf("item = %+v", it)
	}
	if _, err := c.Get("absent"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("miss err = %v", err)
	}
	// A handler counts its datagram after sending the reply, so the
	// client can be here before the second one has: wait for the count.
	for deadline := time.Now().Add(2 * time.Second); udp.Handled() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("handled = %d, want 2", udp.Handled())
		}
	}
}

func TestUDPMultiDatagramResponse(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	big := make([]byte, 8000) // spans several fragments
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	srv.Store().Set("big", big, 0, 0)

	c, err := kvclient.DialUDP(udp.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	it, err := c.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Value) != len(big) {
		t.Fatalf("len = %d, want %d", len(it.Value), len(big))
	}
	for i := range big {
		if it.Value[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestUDPMalformedDatagramsDropped(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{1, 2, 3})                          // shorter than the header
	conn.Write([]byte{0, 1, 0, 5, 0, 9, 0, 0, 'g', 'x'}) // fragmented request
	deadline := time.Now().Add(2 * time.Second)
	for udp.Dropped() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want 2", udp.Dropped())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseReleasesAllGoroutines exercises the full TCP+UDP lifecycle
// explicitly: the leak check registered by startServer (which runs
// after every cleanup) is the assertion — accept loop, per-connection
// handlers and the UDP read loop must all exit once Close returns.
func TestCloseReleasesAllGoroutines(t *testing.T) {
	srv, addr := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

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

	uc, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	req := append([]byte{0, 9, 0, 0, 0, 1, 0, 0}, "get k\r\n"...)
	if _, err := uc.Write(req); err != nil {
		t.Fatal(err)
	}
	uc.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp := make([]byte, 2048)
	if _, err := uc.Read(resp); err != nil {
		t.Fatalf("udp response: %v", err)
	}
}
