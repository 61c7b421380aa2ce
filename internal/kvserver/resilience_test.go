package kvserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
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

// TestBusyRefusalIsRetryableClientSide ties the wire format to the
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

// TestInflightCapShedsUnderLoad wires the gate end to end: one client
// wedges the only execution slot by not reading a large response (the
// server blocks mid-dispatch with the slot held), so a second client's
// request is answered busy instead of queueing.
func TestInflightCapShedsUnderLoad(t *testing.T) {
	st, _ := kvstore.New(kvstore.DefaultConfig(64 << 20))
	srv := NewWithOptions(st, nil, Options{MaxInflight: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	big := make([]byte, 900<<10)
	seed, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Set("big", big, 0, 0); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// Wedge: pipeline many gets of the value and never read. The
	// server's response writes overflow every buffer in the path and
	// block inside dispatch, holding the in-flight slot.
	wedge, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wedge.Close()
	go io.WriteString(wedge, strings.Repeat("get big\r\n", 64))

	probe, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := probe.Get("absent")
		if errors.Is(err, kvclient.ErrBusy) {
			break
		}
		if err != nil && !errors.Is(err, kvclient.ErrNotFound) {
			t.Fatalf("probe error = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight cap never shed a request")
		}
	}
	if probeValue(srv.Probes(), "live.server.rejected.busy") == 0 {
		t.Fatal("reject reason busy not counted")
	}
}

// TestInflightGateShedsASCIIAndBinary holds the only in-flight slot
// from the test itself, so the gate is full without racing any traffic:
// an ASCII get and a binary GET must each be refused busy and counted,
// and once the slot is released both must be served.
func TestInflightGateShedsASCIIAndBinary(t *testing.T) {
	testutil.CheckGoroutines(t)
	st, err := kvstore.New(kvstore.DefaultConfig(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{MaxInflight: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	dial := func() net.Conn {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ascii, bin := dial(), dial()
	defer ascii.Close()
	defer bin.Close()
	asciiGet := func() string {
		if _, err := io.WriteString(ascii, "get k\r\n"); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(ascii).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	binaryGet := func() uint16 {
		req := make([]byte, 24+1)
		req[0] = protocol.MagicRequest
		req[1] = protocol.OpGet
		binary.BigEndian.PutUint16(req[2:], 1) // key length
		binary.BigEndian.PutUint32(req[8:], 1) // body length
		req[24] = 'k'
		if _, err := bin.Write(req); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, 24)
		if _, err := io.ReadFull(bin, hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(bin, make([]byte, binary.BigEndian.Uint32(hdr[8:]))); err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint16(hdr[6:])
	}

	gate := srv.sessionEnv().Gate
	if !gate.TryAcquire() {
		t.Fatal("could not take the only in-flight slot")
	}
	if got := asciiGet(); got != "SERVER_ERROR busy\r\n" {
		t.Fatalf("ASCII get with the gate full answered %q, want a busy refusal", got)
	}
	if got := binaryGet(); got != protocol.StatusBusy {
		t.Fatalf("binary GET with the gate full answered status %#x, want StatusBusy", got)
	}
	if got := probeValue(srv.Probes(), "live.server.rejected.busy"); got != 2 {
		t.Fatalf("live.server.rejected.busy = %v after two shed gets, want 2", got)
	}
	gate.Release()
	if got := asciiGet(); got != "END\r\n" {
		t.Fatalf("ASCII get with the gate free answered %q, want END", got)
	}
	if got := binaryGet(); got != protocol.StatusKeyNotFound {
		t.Fatalf("binary GET with the gate free answered status %#x, want StatusKeyNotFound", got)
	}
}

// TestInflightCapServesPipelinedRun: the in-flight cap counts
// executing requests, and a pipelined run of binary gets is one. With
// MaxInflight 1 and no other client, 16 gets written in one burst are
// all answered, none of them busy.
func TestInflightCapServesPipelinedRun(t *testing.T) {
	testutil.CheckGoroutines(t)
	st, err := kvstore.New(kvstore.DefaultConfig(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{MaxInflight: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	const depth = 16
	var burst []byte
	for i := 0; i < depth; i++ {
		req := make([]byte, 24+1)
		req[0] = protocol.MagicRequest
		req[1] = protocol.OpGet
		binary.BigEndian.PutUint16(req[2:], 1) // key length
		binary.BigEndian.PutUint32(req[8:], 1) // body length
		req[24] = 'k'
		burst = append(burst, req...)
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		hdr := make([]byte, 24)
		if _, err := io.ReadFull(c, hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, binary.BigEndian.Uint32(hdr[8:]))); err != nil {
			t.Fatal(err)
		}
		if status := binary.BigEndian.Uint16(hdr[6:]); status != protocol.StatusOK {
			t.Fatalf("get %d of a %d-deep burst answered status %#x, want StatusOK", i, depth, status)
		}
	}
	if got := probeValue(srv.Probes(), "live.server.rejected.busy"); got != 0 {
		t.Fatalf("live.server.rejected.busy = %v, want 0", got)
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
