package kvserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/cluster"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

// TestOneFakeClockDrivesServer runs a server, its store and its
// replicator on one clock.Fake: expiry follows the fake, not the host,
// and every op span, lifecycle instant and replicator instant in the
// flight recording carries one of the fake's two readings — the seam
// that lets a test put the server on virtual time end to end.
func TestOneFakeClockDrivesServer(t *testing.T) {
	t0 := 1_700_000_000 * sim.Ns(time.Second)
	fake := clock.NewFake(t0)
	cfg := kvstore.DefaultConfig(16 << 20)
	cfg.Clock = fake
	st, err := kvstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder[sim.Ns]("server", 256)
	ring := cluster.NewRing(16)
	ring.Add("self")
	ring.Add("peer-a")
	peers := newFakeReplStore()
	peers.dialErr["peer-a"] = errors.New("peer-a is down")
	repl, err := NewReplicator(ReplOptions{
		Self: "self", Ring: ring, Replicas: 2,
		Dial: peers.dial, Flight: rec, Clock: st.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	srv := NewWithOptions(st, nil, Options{Flight: rec, FlightEvery: 1, Repl: repl})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c, err := kvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v"), 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatalf("get within the 10s TTL: %v", err)
	}
	// The async replica write fails on the replicator's worker; once it
	// has, its instant is stamped before the clock moves.
	if err := repl.Drain(time.Minute); err != nil {
		t.Fatal(err)
	}
	fake.Advance(11 * time.Second)
	if _, err := c.Get("k"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("get 11s later on the fake clock: err = %v, want a miss", err)
	}
	c.Close()
	waitIdle(t, srv)

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	before, after := float64(t0/1000), float64((t0+11*sim.Ns(time.Second))/1000)
	at := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue // track names carry no time
		}
		if ev.Ts != before && ev.Ts != after {
			t.Errorf("%s %q stamped %.3fµs, not a reading of the fake clock", ev.Ph, ev.Name, ev.Ts)
		}
		at[ev.Name] = append(at[ev.Name], ev.Ts)
	}
	want := map[string][]float64{
		"store":           {before},
		"get":             {before, after},
		"conn.open":       {before},
		"conn.close":      {after},
		"repl.peer.error": {before},
	}
	for name, ts := range want {
		got := at[name]
		if len(got) != len(ts) {
			t.Errorf("%q stamped at %v, want %v", name, got, ts)
			continue
		}
		for i := range ts {
			if got[i] != ts[i] {
				t.Errorf("%q stamped at %v, want %v", name, got, ts)
			}
		}
	}
}
