package kvserver

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/testutil"
)

// TestMaxConnsRejectedPromptly pins the new refusal behaviour: a
// connection over the cap receives an explicit busy line and is closed
// promptly, and the rejection is classified in OpMetrics.
func TestMaxConnsRejectedPromptly(t *testing.T) {
	testutil.CheckGoroutines(t)
	st, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv := NewWithOptions(st, nil, Options{MaxConns: 1})
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
	if err := c1.Set("a", []byte("1"), 0, 0); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(raw).ReadString('\n')
	if err != nil {
		t.Fatalf("no busy line before close: %v", err)
	}
	if strings.TrimRight(line, "\r\n") != "SERVER_ERROR busy" {
		t.Fatalf("refusal line = %q", line)
	}
	// The connection is closed after the refusal, promptly.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("rejected connection stayed open")
	}
	if probeValue(srv.Probes(), "live.server.rejected.max_conns") == 0 {
		t.Fatal("reject reason max_conns not counted")
	}
	found := false
	for _, p := range srv.Probes() {
		if p.Name == "live.server.rejected.max_conns" && p.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("rejected.max_conns probe missing")
	}
}

// TestBusyRefusalClassifiesAsErrBusy ties the wire format to the
// client's classification: the refusal parses as kvclient.ErrBusy.
func TestBusyRefusalClassifiesAsErrBusy(t *testing.T) {
	testutil.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		br.ReadString('\n') // the get line
		io.WriteString(c, "SERVER_ERROR busy\r\n")
		br.ReadString('\n') // quit from Close
	}()
	c, err := kvclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Get("k")
	if !errors.Is(err, kvclient.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if !errors.Is(err, kvclient.ErrServer) {
		t.Fatal("ErrBusy must still match ErrServer checks")
	}
}

// TestServeOn serves on a caller-provided listener.
func TestServeOn(t *testing.T) {
	testutil.CheckGoroutines(t)
	st, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv := New(st, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeOn(ln)
	defer srv.Close()
	c, err := kvclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if it, err := c.Get("k"); err != nil || string(it.Value) != "v" {
		t.Fatalf("get = %+v, %v", it, err)
	}
}
