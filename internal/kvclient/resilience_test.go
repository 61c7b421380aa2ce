package kvclient_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"kv3d/internal/kvclient"
)

// stallListener accepts connections and never responds — the shape of a
// wedged node, which only a deadline can unstick.
func stallListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c) // hold open, never read or write
		}
	}()
	return ln.Addr().String()
}

// TestOpTimeoutUnsticksStalledRead is the regression test for the
// per-operation deadline: without OpTimeout a Get against a silent peer
// blocks forever; with it the call returns a timeout error.
func TestOpTimeoutUnsticksStalledRead(t *testing.T) {
	addr := stallListener(t)
	c, err := kvclient.DialOptions(addr, kvclient.Options{
		DialTimeout: time.Second,
		OpTimeout:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Get("k")
	if err == nil {
		t.Fatal("Get against a stalled node returned nil")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net.Error timeout", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Get took %v; the deadline did not bound the stall", took)
	}
}

// TestOpTimeoutBoundsStalledWrite covers the write half: a peer that
// stops reading eventually backs TCP up into our write, which must also
// hit the deadline rather than hang.
func TestOpTimeoutBoundsStalledWrite(t *testing.T) {
	addr := stallListener(t)
	c, err := kvclient.DialOptions(addr, kvclient.Options{
		DialTimeout: time.Second,
		OpTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 8<<20) // larger than kernel buffers on any platform
	start := time.Now()
	err = c.Set("k", big, 0, 0)
	if err == nil {
		t.Fatal("Set against a non-reading node returned nil")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Set took %v; the write deadline did not fire", took)
	}
}
