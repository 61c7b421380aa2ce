package kvserver

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/cluster"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// runMetricsGolden drives a fixed op script over ASCII and binary
// against a server with every probe source attached — a flight
// recorder small enough to drop, and a Replicator whose one peer is a
// fake that acknowledges every quorum write — and renders
// the resulting /metrics snapshot one probe per line. live.runtime.*
// values depend on the process, so only their names are kept.
//
// The clock never advances: with the flight recorder on, a closing
// connection reads it after its handler has left Active(), so a
// ticking clock could charge that read to the next script's first op.
// Latency probes therefore read 0 and their counts carry the script.
func runMetricsGolden(t *testing.T) []byte {
	t.Helper()
	cfg := kvstore.DefaultConfig(32 << 20)
	cfg.Clock = clock.NewFake(1_000_000 * sim.Ns(time.Second))
	st, err := kvstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.NewRing(16)
	ring.Add("self")
	ring.Add("peer-a")
	repl, err := NewReplicator(ReplOptions{
		Self:          "self",
		Ring:          ring,
		Replicas:      2,
		DefaultMode:   protocol.ReplQuorum,
		QuorumTimeout: 5 * time.Second,
		Dial:          newFakeReplStore().dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	srv := NewWithOptions(st, nil, Options{
		Flight:      obs.NewFlightRecorder[sim.Ns]("server", 32),
		FlightEvery: 1,
		Repl:        repl,
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	addr := srv.Addr().String()
	scriptASCII(t, addr)
	waitIdle(t, srv)
	scriptBinary(t, addr)
	waitIdle(t, srv)

	var buf bytes.Buffer
	for _, p := range srv.Probes() {
		if strings.HasPrefix(p.Name, "live.runtime.") {
			fmt.Fprintf(&buf, "%s *\n", p.Name)
		} else {
			fmt.Fprintf(&buf, "%s %s\n", p.Name, strconv.FormatFloat(p.Value, 'f', -1, 64))
		}
	}
	return buf.Bytes()
}

// TestMetricsGolden pins the live /metrics surface: the sorted probe
// names, and the value of every probe outside live.runtime.*, after a
// fixed script. A dropped, renamed or miscounted probe fails here.
// Regenerate with
//
//	go test ./internal/kvserver -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	testutil.CheckGoroutines(t)
	got := runMetricsGolden(t)
	if again := runMetricsGolden(t); !bytes.Equal(got, again) {
		t.Fatalf("same script produced different probes across runs:\n%s\nvs\n%s", got, again)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("probes drifted from %s; run with -update if intended\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
