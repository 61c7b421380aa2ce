package kvserver

// Allocation gates for kvserver's two //kv3d:hotpath functions, which
// are unexported and so cannot be reached from the root package's
// hotpath_alloc_test.go: UDPServer.handle and flightSink.ObserveSpan.
// Like the session gates there, they measure a session at two lengths,
// so per-session (here: per-datagram) setup cancels and what is left is
// the per-op cost, which must be zero.

import (
	"bufio"
	"bytes"
	"io"
	"log"
	"net"
	"testing"

	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
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
		Flight: obs.NewFlightRecorder("gate", 256), FlightEvery: 1,
	})
}

// TestUDPHandleZeroAllocPerOp serves datagrams of noreply sets through
// handle, so the reply is the frame header alone and its buffer never
// grows with the op count: a datagram of many commands must allocate
// no more than one of few.
func TestUDPHandleZeroAllocPerOp(t *testing.T) {
	srv := newGateServer(t)
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	conn, err := net.ListenUDP("udp", lo)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The peer: replies land in its receive buffer, unread.
	peer, err := net.ListenUDP("udp", lo)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// Built by hand rather than by ListenUDP, so no serve loop runs
	// beside the measurement.
	u := &UDPServer{srv: srv, conn: conn, sem: make(chan struct{}, 1)}
	datagram := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, "set k 0 0 5 noreply\r\nhello\r\n"...)
		}
		return b
	}
	serve := func(payload []byte) {
		u.sem <- struct{}{}
		u.handlers.Add(1)
		u.handle(1, payload, peer.LocalAddr().(*net.UDPAddr))
	}
	const small, large = 64, 1024
	reqSmall, reqLarge := datagram(small), datagram(large)
	allocsSmall := testing.AllocsPerRun(10, func() { serve(reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("UDP set allocates %v per op (datagram totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
	probes := srv.Probes()
	if h, d := probeValue(probes, "live.udp.handled"), probeValue(probes, "live.udp.dropped"); h != 22 || d != 0 {
		t.Fatalf("handled %v, dropped %v datagrams, want 22 and 0", h, d)
	}
}

// TestFlightSinkZeroAllocPerOp serves binary GETs that carry an opaque
// with the server's session dependencies, so every op goes through the
// stream flight sink's whole ObserveSpan: the op span, its three phases
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
	if srv.Flight().Len() == 0 {
		t.Fatal("the flight recorder saw no events")
	}
}
