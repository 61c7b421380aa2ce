package kvserver

// Allocation gate for kvserver's one //kv3d:hotpath function,
// flightSink.ObserveSpan, which is unexported and so cannot be reached
// from the root package's hotpath_alloc_test.go. Like the session gates
// there, it measures a session at two lengths, so per-session setup
// cancels and what is left is the per-op cost, which must be zero.

import (
	"bufio"
	"bytes"
	"io"
	"log"
	"testing"

	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// newGateServer is a server with every per-op dependency live: op
// metrics, and flight recording of every op.
func newGateServer(t *testing.T) *Server {
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k", []byte("0123456789abcdef"), 0, 0); err != nil {
		t.Fatal(err)
	}
	return NewWithOptions(st, log.New(io.Discard, "", 0), Options{
		Flight: obs.NewFlightRecorder[sim.Ns]("gate", 256), FlightEvery: 1,
	})
}

// TestFlightSinkZeroAllocPerOp serves binary GETs that carry an opaque
// with the server's session dependencies, so every op goes through the
// server's flight sink's whole ObserveSpan: the op span, its three phases
// and the async pair the opaque correlates.
func TestFlightSinkZeroAllocPerOp(t *testing.T) {
	srv := newGateServer(t)
	session := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			// Key "k", body 1 byte, opaque i%255+1.
			b = append(b, protocol.MagicRequest, protocol.OpGet, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, byte(i%255+1), 0, 0, 0, 0, 0, 0, 0, 0, 'k')
		}
		return b
	}
	serve := func(req []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(req), 4096)
		w := bufio.NewWriterSize(io.Discard, 4096)
		if err := protocol.NewBinarySessionBuffered(srv.store, r, w, srv.sessionEnv()).Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	const small, large = 64, 2048
	reqSmall, reqLarge := session(small), session(large)
	allocsSmall := testing.AllocsPerRun(10, func() { serve(reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("flight-traced binary GET allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
	var trace bytes.Buffer
	if err := srv.Flight().WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`"ts":`)) {
		t.Fatal("the flight recorder saw no events")
	}
}
