package kvclient_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
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

// scriptedNode speaks just enough ASCII protocol to return a canned
// line per request, recording what it saw.
func scriptedNode(t *testing.T, replies []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		i := 0
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(c)
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					break
				}
				if strings.HasPrefix(line, "quit") {
					break
				}
				if i < len(replies) {
					io.WriteString(c, replies[i])
					i++
				} else {
					io.WriteString(c, "END\r\n")
				}
			}
			c.Close()
		}
	}()
	return ln.Addr().String()
}

// TestClusterRetriesBusyWithRecordedBackoff: a busy refusal is retried
// (it is load shedding, not a dead node), and the backoff schedule is
// exactly reproducible with an injected jitter and sleep recorder.
func TestClusterRetriesBusyWithRecordedBackoff(t *testing.T) {
	addr := scriptedNode(t, []string{
		"SERVER_ERROR busy\r\n",
		"SERVER_ERROR busy\r\n",
		"END\r\n",
	})
	reg := obs.NewRegistry()
	clk := clock.NewFake(0)
	rec := obs.NewFlightRecorder("client", 64)
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:          []string{addr},
		MaxRetries:     3,
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  250 * time.Millisecond,
		Jitter:         func() float64 { return 0.5 },
		Clock:          clk,
		Flight:         rec,
		Probes:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if _, err := cc.Get("k"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after retries drained the busy spell", err)
	}
	// Two busy replies → two backoff sleeps at jitter 0.5 of the
	// doubling ceiling: 1ms, 2ms, the second starting when the first
	// ended on the fake's timeline, which they moved 3ms in all.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	wantAt := []time.Duration{0, time.Millisecond}
	got, at := backoffTimeline(t, rec)
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("sleep[%d] = %v at %v, want %v at %v (schedule drifted)", i, got[i], at[i], want[i], wantAt[i])
		}
	}
	if now := time.Duration(clk.Now()); now != 3*time.Millisecond {
		t.Fatalf("fake clock at %v after the retries, want 3ms", now)
	}
	if v := counterValue(reg, "kvclient.retries"); v != 2 {
		t.Fatalf("retries probe = %v, want 2", v)
	}
	if v := counterValue(reg, "kvclient.busy"); v != 2 {
		t.Fatalf("busy probe = %v, want 2", v)
	}
}

// TestSeededJitterIsDeterministic: same seed, same backoff schedule,
// byte for byte; a different seed diverges.
func TestSeededJitterIsDeterministic(t *testing.T) {
	record := func(seed uint64) []time.Duration {
		rec := obs.NewFlightRecorder("client", 64)
		cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
			Addrs:      []string{"127.0.0.1:1"}, // nothing listens here
			MaxRetries: 4,
			Seed:       seed,
			Clock:      clock.NewFake(0),
			Flight:     rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		cc.Get("k") // fails after retries; only the schedule matters
		slept, _ := backoffTimeline(t, rec)
		return slept
	}
	a, b, c := record(7), record(7), record(8)
	if len(a) != 4 {
		t.Fatalf("recorded %d sleeps, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sleep %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
		}
	}
	if same && len(a) == len(c) {
		t.Fatal("different seeds produced an identical backoff schedule")
	}
}

// backoffTimeline reads a cluster client's backoff sleeps off its
// flight recording on a clock.Fake started at 0: each backoff instant
// carries the sleep it announced, and its timestamp is where on the
// fake's timeline the sleep began.
func backoffTimeline(t *testing.T, rec *obs.FlightRecorder) (slept, at []time.Duration) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"` // microseconds
			Args struct {
				V int64 `json:"v"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "backoff" {
			slept = append(slept, time.Duration(ev.Args.V))
			at = append(at, time.Duration(ev.Ts*1e3))
		}
	}
	return slept, at
}

func counterValue(reg *obs.Registry, name string) float64 {
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// TestEjectionAndProbationReadmission runs the breaker end to end
// against real servers: killing a node ejects it after EjectAfter
// consecutive failures, traffic continues on the survivor, and the node
// is re-admitted on probation once it comes back and the probation has
// passed on the client's fake clock.
func TestEjectionAndProbationReadmission(t *testing.T) {
	stA, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srvA := kvserver.New(stA, nil)
	if err := srvA.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srvA.Serve()
	defer srvA.Close()
	addrA := srvA.Addr().String()

	stB, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srvB := kvserver.New(stB, nil)
	if err := srvB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srvB.Serve()
	addrB := srvB.Addr().String()

	reg := obs.NewRegistry()
	clk := clock.NewFake(0)
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:      []string{addrA, addrB},
		EjectAfter: 1,
		Probation:  150 * time.Millisecond,
		MaxRetries: 3,
		Clock:      clk,
		Probes:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	for i := 0; i < 40; i++ {
		if err := cc.Set(key(i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	srvB.Close()

	// Writes keep succeeding: the first failure ejects B and the retry
	// lands every key on A.
	for i := 0; i < 40; i++ {
		if err := cc.Set(key(i), []byte("v2"), 0, 0); err != nil {
			t.Fatalf("set %s with one node down: %v", key(i), err)
		}
	}
	if counterValue(reg, "kvclient.ejections") == 0 {
		t.Fatal("node was never ejected")
	}
	nodes := cc.Nodes()
	if len(nodes) != 1 || nodes[0] != addrA {
		t.Fatalf("ring after ejection = %v, want just %s", nodes, addrA)
	}

	// Revive B on the same address. Backoff moved the fake by
	// milliseconds at most, so B stays out until the probation passes;
	// then the next operation re-admits it.
	stB2, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srvB2 := kvserver.New(stB2, nil)
	if err := srvB2.Listen(addrB); err != nil {
		t.Skipf("cannot rebind %s: %v", addrB, err)
	}
	go srvB2.Serve()
	defer srvB2.Close()

	if err := cc.Set(key(0), []byte("v3"), 0, 0); err != nil || len(cc.Nodes()) != 1 {
		t.Fatalf("during probation: set err %v, ring %v, want B still out", err, cc.Nodes())
	}
	clk.Advance(151 * time.Millisecond) // past the 150ms probation
	if err := cc.Set(key(0), []byte("v3"), 0, 0); err != nil {
		t.Fatalf("set after probation: %v", err)
	}
	if len(cc.Nodes()) != 2 {
		t.Fatalf("ring after probation = %v, want B re-admitted", cc.Nodes())
	}
	if counterValue(reg, "kvclient.readmissions") == 0 {
		t.Fatal("readmissions probe never counted")
	}
	// And the re-admitted node serves traffic again.
	for i := 0; i < 40; i++ {
		if err := cc.Set(key(i), []byte("v4"), 0, 0); err != nil {
			t.Fatalf("set %s after re-admission: %v", key(i), err)
		}
	}
}

func key(i int) string {
	return "key-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestAllNodesDownThenBack: with every node ejected the breaker yields
// (re-admits everything) rather than refusing forever, so the client
// recovers as soon as any node returns.
func TestAllNodesDownThenBack(t *testing.T) {
	st, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv := kvserver.New(st, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	addr := srv.Addr().String()

	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:      []string{addr},
		EjectAfter: 1,
		Probation:  10 * time.Second, // long: recovery must come from the yield path
		MaxRetries: 2,
		Clock:      clock.NewFake(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := cc.Set("k", []byte("v"), 0, 0); err == nil {
		t.Fatal("set with the only node down should fail")
	}

	st2, _ := kvstore.New(kvstore.DefaultConfig(16 << 20))
	srv2 := kvserver.New(st2, nil)
	if err := srv2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	go srv2.Serve()
	defer srv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cc.Set("k", []byte("v2"), 0, 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after the only node returned")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
