package kvclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// stepClock is a deterministic strictly increasing clock: every read
// advances it one microsecond, and a sleep advances it without waiting.
type stepClock struct{ *clock.Fake }

func newStepClock() stepClock { return stepClock{clock.NewFake(0)} }

func (c stepClock) Now() sim.Ns {
	c.Advance(time.Microsecond)
	return c.Fake.Now()
}

func startFlightedServer(t *testing.T, name string) (*kvserver.Server, *obs.FlightRecorder, string) {
	t.Helper()
	cfg := kvstore.DefaultConfig(32 << 20)
	cfg.Clock = newStepClock()
	st, err := kvstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(name, 512)
	srv := kvserver.NewWithOptions(st, nil, kvserver.Options{
		Flight:      rec,
		FlightEvery: 1,
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, rec, srv.Addr().String()
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

// deadAddr reserves a loopback address with nothing listening on it, so
// dials fail fast with a connection refusal.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestBinaryClientOps exercises the binary client end to end against a
// live server, including explicit opaque stamping.
func TestBinaryClientOps(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, _, addr := startFlightedServer(t, "server")
	bc, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Set("bk", []byte("bv"), 7, 0); err != nil {
		t.Fatal(err)
	}
	bc.SetNextOpaque(0x1234)
	it, err := bc.Get("bk")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "bv" || it.Flags != 7 {
		t.Fatalf("got %q flags %d", it.Value, it.Flags)
	}
	if bc.LastOpaque() != 0x1234 {
		t.Fatalf("LastOpaque = %#x, want 0x1234", bc.LastOpaque())
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
	if err := bc.Noop(); err != nil {
		t.Fatal(err)
	}
	if err := bc.Delete("bk"); err != nil {
		t.Fatal(err)
	}
	if err := bc.Delete("bk"); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	waitServerIdle(t, srv)
}

// traceEvent is the subset of a Chrome trace event the assertions read.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	ID   string `json:"id"`
	Args struct {
		Outcome string `json:"outcome"`
	} `json:"args"`
}

// TestCorrelatedRetryTrace is the headline acceptance scenario: a
// cluster client on the binary protocol aims at a dead node, fails its
// first attempt, backs off (ejecting the dead node), and succeeds on
// the surviving server. The merged client+server trace must show the
// failed attempt, the backoff instants, and the successful attempt
// correlated — by wire opaque — with the second server's
// parse/execute/write phases.
func TestCorrelatedRetryTrace(t *testing.T) {
	testutil.CheckGoroutines(t)
	srvB, recB, addrB := startFlightedServer(t, "server-b")
	addrA := deadAddr(t)

	cliRec := obs.NewFlightRecorder("client", 512)
	c, err := NewCluster(ClusterConfig{
		Addrs:      []string{addrA, addrB},
		Binary:     true,
		MaxRetries: 3,
		EjectAfter: 1,
		Probation:  time.Hour,
		Clock:      newStepClock(),
		Flight:     cliRec,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Find a key the dead node owns, so the first attempt must fail.
	var key string
	for i := 0; i < 100; i++ { // ten keys all missed it about once in 2^10 runs
		k := fmt.Sprintf("k%d", i)
		owners, err := c.ownersFor(k)
		if err != nil {
			t.Fatal(err)
		}
		if owners[0] == addrA {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no probe key hashed to the dead node")
	}

	// Seed the value on the survivor, where the key lands after the dead
	// node's ejection.
	seed, err := DialBinary(addrB)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Set(key, []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	it, err := c.Get(key)
	if err != nil {
		t.Fatalf("get after failover: %v", err)
	}
	if string(it.Value) != "v" {
		t.Fatalf("got %q", it.Value)
	}
	c.Close()
	waitServerIdle(t, srvB)

	var buf bytes.Buffer
	if err := obs.WriteMergedTraceJSON(&buf, cliRec, recB); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("merged trace is not valid JSON:\n%s", buf.Bytes())
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	const cliPid, srvPid = 1, 2
	var gotFail, gotOK, gotRetry, gotBackoff, gotEject bool
	cliIDs := map[string]bool{}
	srvIDs := map[string]bool{}
	srvPhases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Pid {
		case cliPid:
			if ev.Ph == "X" && ev.Name == "get" && ev.Args.Outcome == "error" {
				gotFail = true
			}
			if ev.Ph == "X" && ev.Name == "get" && ev.Args.Outcome == "ok" {
				gotOK = true
			}
			switch ev.Name {
			case "retry":
				gotRetry = true
			case "backoff":
				gotBackoff = true
			case "breaker.eject":
				gotEject = true
			}
			if (ev.Ph == "b" || ev.Ph == "e") && ev.ID != "" {
				cliIDs[ev.ID] = true
			}
		case srvPid:
			if (ev.Ph == "b" || ev.Ph == "e") && ev.ID != "" {
				srvIDs[ev.ID] = true
			}
			if ev.Ph == "X" {
				srvPhases[ev.Name] = true
			}
		}
	}
	if !gotFail || !gotOK {
		t.Errorf("client attempts: fail=%v ok=%v (want both)", gotFail, gotOK)
	}
	if !gotRetry || !gotBackoff || !gotEject {
		t.Errorf("resilience instants: retry=%v backoff=%v eject=%v (want all)", gotRetry, gotBackoff, gotEject)
	}
	for _, phase := range []string{"parse", "execute", "write", "get"} {
		if !srvPhases[phase] {
			t.Errorf("server trace missing %q span: %v", phase, srvPhases)
		}
	}
	var shared []string
	for id := range cliIDs {
		if srvIDs[id] {
			shared = append(shared, id)
		}
	}
	if len(shared) == 0 {
		t.Errorf("no shared async correlation id between client (%v) and server (%v)", cliIDs, srvIDs)
	}
}
