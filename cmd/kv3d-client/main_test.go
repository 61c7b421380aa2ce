package main

import (
	"io"
	"strings"
	"testing"

	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
)

// startServer serves an in-process kvserver on a loopback port.
func startServer(t *testing.T) string {
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := kvserver.New(st, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// TestIncrRejectsBadDelta: a delta that is not an unsigned integer is
// an error, and the key keeps its value.
func TestIncrRejectsBadDelta(t *testing.T) {
	addr := startServer(t)
	if err := runCommand(addr, []string{"set", "n", "5"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, delta := range []string{"abc", "-1", "1.5", ""} {
		if err := runCommand(addr, []string{"incr", "n", delta}, io.Discard); err == nil {
			t.Errorf("incr n %q: no error", delta)
		}
	}
	var out strings.Builder
	if err := runCommand(addr, []string{"get", "n"}, &out); err != nil || out.String() != "5\n" {
		t.Fatalf("after rejected incrs, get n = %q, %v; want 5", out.String(), err)
	}
	out.Reset()
	if err := runCommand(addr, []string{"incr", "n", "2"}, &out); err != nil || out.String() != "7\n" {
		t.Fatalf("incr n 2 = %q, %v; want 7", out.String(), err)
	}
}
