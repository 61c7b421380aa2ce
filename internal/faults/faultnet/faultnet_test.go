package faultnet

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"kv3d/internal/faults"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// echoServer accepts connections on ln and echoes bytes back until the
// listener closes.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
}

func roundTrip(c net.Conn, msg string) (string, error) {
	if _, err := io.WriteString(c, msg); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func TestNilInjectorIsPassThrough(t *testing.T) {
	var in *Injector
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if in.Conn("x", c1) != c1 {
		t.Fatal("nil injector wrapped the conn")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if in.Listener("x", ln) != ln {
		t.Fatal("nil injector wrapped the listener")
	}
}

func TestInjectedReset(t *testing.T) {
	testutil.CheckGoroutines(t)
	in := New()
	reg := obs.NewRegistry()
	in.SetProbes(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := in.Listener("node", ln)
	defer fln.Close()
	echoServer(t, fln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := roundTrip(c, "ping"); err != nil || got != "ping" {
		t.Fatalf("healthy round trip = %q, %v", got, err)
	}

	// Arm one reset: the server side's next I/O op on this target fails
	// and closes the connection, so the client sees EOF/reset.
	in.Apply(faults.Event{Kind: faults.ConnReset, Target: "node"})
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := roundTrip(c, "ping"); err == nil {
		t.Fatal("round trip survived an injected reset")
	}
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name == "faultnet.reset_conns" && p.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reset not counted: %+v", reg.Snapshot())
	}
}

func TestDownRefusesAndResetsLiveConns(t *testing.T) {
	testutil.CheckGoroutines(t)
	in := New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := in.Listener("node", ln)
	defer fln.Close()
	echoServer(t, fln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := roundTrip(c, "warm"); err != nil {
		t.Fatal(err)
	}

	in.Apply(faults.Event{Kind: faults.NodeDown, Target: "node"})
	if !in.IsDown("node") {
		t.Fatal("node not down after NodeDown")
	}
	// The established connection was killed.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 1)); err == nil {
		t.Fatal("read on a killed connection succeeded")
	}
	// A fresh dial connects at TCP level but is closed immediately.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		defer c2.Close()
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := roundTrip(c2, "ping"); err == nil {
			t.Fatal("round trip succeeded against a down node")
		}
	}

	in.Apply(faults.Event{Kind: faults.NodeUp, Target: "node"})
	c3, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got, err := roundTrip(c3, "back"); err != nil || got != "back" {
		t.Fatalf("revived round trip = %q, %v", got, err)
	}
}

func TestLatencyWindowDelaysOps(t *testing.T) {
	in := New()
	c1, c2 := net.Pipe()
	defer c2.Close()
	fc := in.Conn("node", c1)
	defer fc.Close()
	go io.Copy(io.Discard, c2)

	const delay = 30 * time.Millisecond
	in.Apply(faults.Event{
		Kind: faults.Latency, Target: "node",
		For: 500 * sim.Millisecond, Arg: int64(delay),
	})
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("write took %v, want >= %v of injected latency", took, delay)
	}
}

func TestReadStallWindow(t *testing.T) {
	in := New()
	c1, c2 := net.Pipe()
	defer c2.Close()
	fc := in.Conn("node", c1)
	defer fc.Close()

	const window = 40 * time.Millisecond
	in.Apply(faults.Event{
		Kind: faults.ReadStall, Target: "node",
		For: sim.Duration(window.Nanoseconds()) * sim.Nanosecond,
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		c2.Write([]byte("y"))
	}()
	start := time.Now()
	if _, err := io.ReadFull(fc, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < window {
		t.Fatalf("stalled read returned after %v, want >= %v", took, window)
	}
}

func TestDriverRepaysScheduleInOrder(t *testing.T) {
	testutil.CheckGoroutines(t)
	plan := &faults.Plan{
		Horizon: 60 * sim.Millisecond,
		Events: []faults.Event{
			{At: 10 * sim.Millisecond, Kind: faults.NodeDown, Target: "a"},
			{At: 30 * sim.Millisecond, Kind: faults.NodeUp, Target: "a"},
			{At: 50 * sim.Millisecond, Kind: faults.ConnReset, Target: "b"},
		},
	}
	var applied atomic.Int32
	var order []faults.Kind
	d := NewDriver(plan, func(ev faults.Event) {
		order = append(order, ev.Kind)
		applied.Add(1)
	})
	start := time.Now()
	d.Start()
	d.Wait()
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("driver finished in %v, before the last event's offset", took)
	}
	if applied.Load() != 3 {
		t.Fatalf("applied %d events, want 3", applied.Load())
	}
	want := []faults.Kind{faults.NodeDown, faults.NodeUp, faults.ConnReset}
	for i, k := range want {
		if order[i] != k {
			t.Fatalf("event order = %v, want %v", order, want)
		}
	}
}

func TestDriverStopAborts(t *testing.T) {
	testutil.CheckGoroutines(t)
	plan := &faults.Plan{
		Horizon: 10 * sim.Second,
		Events: []faults.Event{
			{At: 5 * sim.Second, Kind: faults.NodeDown, Target: "a"},
		},
	}
	var applied atomic.Int32
	d := NewDriver(plan, func(faults.Event) { applied.Add(1) })
	d.Start()
	d.Stop()
	if applied.Load() != 0 {
		t.Fatal("stopped driver applied an event")
	}
	// Stop is idempotent.
	d.Stop()
}

func TestInjectedErrorClassification(t *testing.T) {
	if !errors.Is(ErrReset, ErrInjected) {
		t.Fatal("ErrReset does not unwrap to ErrInjected")
	}
	var nerr net.Error
	if !errors.As(ErrReset, &nerr) {
		t.Fatal("ErrReset is not a net.Error")
	}
	if nerr.Timeout() {
		t.Fatal("injected reset must not classify as a timeout")
	}
}
