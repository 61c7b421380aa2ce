package kvserver

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"kv3d/internal/protocol"
)

// Regression coverage for the unbounded UDP spawn loop kv3d-lint's
// lifecycle check flagged (serve spawned one untracked goroutine per
// datagram): handlers are now bounded by a semaphore and joined by
// Close. These tests pin both properties.

// TestUDPBurstDrainsWithBoundedInflight pushes several times the
// in-flight bound through the listener in waves (each wave fits the
// kernel socket buffer and is drained before the next, so no datagram
// is lost to the OS): if a handler ever fails to release its semaphore
// slot, total throughput caps at udpMaxInflight processed datagrams
// and a later wave times out instead of draining.
func TestUDPBurstDrainsWithBoundedInflight(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if cap(udp.sem) != udpMaxInflight {
		t.Fatalf("sem capacity = %d, want udpMaxInflight (%d)", cap(udp.sem), udpMaxInflight)
	}
	srv.Store().Set("burst-key", []byte("burst-value"), 0, 0)

	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const payload = "get burst-key\r\n"
	frame := make([]byte, protocol.UDPHeaderLen+len(payload))
	copy(frame[protocol.UDPHeaderLen:], payload)
	const (
		waveSize = udpMaxInflight / 2
		waves    = 6 // 3× the bound in total
	)
	sent := uint64(0)
	for wave := 0; wave < waves; wave++ {
		for i := 0; i < waveSize; i++ {
			protocol.PutUDPHeader(frame, uint16(sent), 0, 1)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		processed := func() uint64 {
			probes := srv.Probes()
			return uint64(probeValue(probes, "live.udp.handled") + probeValue(probes, "live.udp.dropped"))
		}
		deadline := time.Now().Add(10 * time.Second)
		for processed() < sent {
			if time.Now().After(deadline) {
				t.Fatalf("wave %d: processed %d of %d datagrams; serve loop appears wedged at the in-flight bound",
					wave, processed(), sent)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestUDPCloseWaitsForHandlers: Close must join in-flight handlers, not
// race them — the pre-fix behaviour returned from Close while handler
// goroutines were still writing responses on the closing socket.
func TestUDPCloseWaitsForHandlers(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Stand in for a slow in-flight handler.
	release := make(chan struct{})
	udp.handlers.Add(1)
	go func() {
		<-release
		udp.handlers.Done()
	}()

	closed := make(chan error, 1)
	go func() { closed <- udp.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned with a handler still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the last handler finished")
	}
}

// TestUDPBurstRepliesMatchRequests sends a burst of distinct GETs
// faster than their handlers finish. The read loop reuses one buffer
// for every datagram, so each handler must run on its own copy of its
// request: one that read the shared buffer late would answer the
// datagram read after it.
func TestUDPBurstRepliesMatchRequests(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	const burst = 64
	for i := 0; i < burst; i++ {
		if err := srv.Store().Set(fmt.Sprintf("key-%d", i), []byte(strings.Repeat("v", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < burst; i++ {
		frame := make([]byte, protocol.UDPHeaderLen)
		protocol.PutUDPHeader(frame, uint16(i), 0, 1)
		if _, err := conn.Write(fmt.Appendf(frame, "get key-%d\r\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 2048)
	for n := 0; n < burst; n++ {
		m, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%d of %d replies: %v", n, burst, err)
		}
		id := int(binary.BigEndian.Uint16(buf))
		want := fmt.Sprintf("VALUE key-%d 0 %d\r\n%s\r\nEND\r\n", id, id, strings.Repeat("v", id))
		if got := string(buf[protocol.UDPHeaderLen:m]); got != want {
			t.Fatalf("reply to request %d = %q, want %q", id, got, want)
		}
	}
}
