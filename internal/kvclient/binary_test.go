package kvclient

import (
	"errors"
	"testing"
	"time"

	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
	"kv3d/internal/testutil"
)

func startServer(t *testing.T) (*kvserver.Server, string) {
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := kvserver.New(st, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func waitServerIdle(t *testing.T, srv *kvserver.Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still has %d active conns", srv.Active())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBinaryClientOps exercises the binary client end to end against a
// live server.
func TestBinaryClientOps(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, addr := startServer(t)
	bc, err := DialBinaryOptions(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Set("bk", []byte("bv"), 7, 0); err != nil {
		t.Fatal(err)
	}
	it, err := bc.Get("bk")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "bv" {
		t.Fatalf("got %q", it.Value)
	}
	if _, err := bc.Get("missing"); err != ErrNotFound {
		t.Fatalf("get missing: %v", err)
	}
	if err := bc.Set("bk2", []byte("v2"), 0, 0); err != nil {
		t.Fatal(err)
	}
	items, err := bc.GetMulti([]string{"bk", "bk2", "missing", "bk"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || string(items["bk2"].Value) != "v2" {
		t.Fatalf("multiget = %v", items)
	}
	if err := bc.DeleteWithMode("bk", protocol.ReplDefault); err != nil {
		t.Fatal(err)
	}
	if err := bc.DeleteWithMode("bk", protocol.ReplDefault); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	waitServerIdle(t, srv)
}

// BinaryClient lifecycle coverage: the client owns no goroutines of its
// own, so the leak check here pins the *server-side* cost of a binary
// session — every Dial/Close cycle must return the per-connection
// handler goroutine, and a closed client must fail ops instead of
// wedging on a dead socket.

// TestBinaryClientLifecycleNoLeak churns dial/use/close cycles under
// the goroutine checker: each cycle's connection handler must wind down
// once the client hangs up (the binary session reads the quit op or
// EOF and exits).
func TestBinaryClientLifecycleNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, addr := startServer(t)
	for i := 0; i < 3; i++ {
		bc, err := DialBinaryOptions(addr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.Set("lk", []byte("lv"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if it, err := bc.Get("lk"); err != nil || string(it.Value) != "lv" {
			t.Fatalf("get = %q, %v", it.Value, err)
		}
		if err := bc.Close(); err != nil {
			t.Fatalf("close cycle %d: %v", i, err)
		}
	}
	waitServerIdle(t, srv)
}

// TestBinaryClientOpsAfterCloseFail: a closed client must return errors
// rather than blocking on the dead connection.
func TestBinaryClientOpsAfterCloseFail(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, addr := startServer(t)
	bc, err := DialBinaryOptions(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bc.Set("k", []byte("v"), 0, 0); err == nil {
		t.Fatal("Set on a closed client succeeded")
	}
	if _, err := bc.Get("k"); err == nil {
		t.Fatal("Get on a closed client succeeded")
	}
	waitServerIdle(t, srv)
}

// TestBinaryStatusBusyClassifiesAsErrBusy ties memcached's EBUSY status
// (0x0085, which other memcached servers send when they shed load) to
// the client's classification: it is the retryable ErrBusy, which still
// matches ErrServer checks, while another server-side status is only
// ErrServer.
func TestBinaryStatusBusyClassifiesAsErrBusy(t *testing.T) {
	for _, tc := range []struct {
		status       uint16
		busy, server bool // errors.Is ErrBusy, errors.Is ErrServer
	}{
		{0x0085, true, true},
		{protocol.StatusOutOfMemory, false, true},
	} {
		err := statusErr(tc.status, []byte("busy"))
		if errors.Is(err, ErrBusy) != tc.busy || errors.Is(err, ErrServer) != tc.server {
			t.Errorf("status %#04x: err = %v, want ErrBusy %v, ErrServer %v", tc.status, err, tc.busy, tc.server)
		}
	}
}
