package kvserver

import (
	"net"
	"sync"
	"testing"
	"time"

	"kv3d/internal/kvclient"
)

// Race-regression coverage for the atomic UDP counters: handle
// runs in one goroutine per datagram, so live.udp.handled/dropped are
// bumped concurrently while scrapes of the server's probes poll from
// outside.
// Under `go test -race` (the CI configuration) any regression to
// unsynchronized counters fails here; the exact-count assertions also
// catch lost updates without the detector.
func TestUDPStatsConcurrentWithTraffic(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if err := srv.Store().Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 3; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = srv.Probes()
				}
			}
		}()
	}

	const clients = 6
	const perClient = 50
	var answered sync.WaitGroup
	var got [clients]int
	for c := 0; c < clients; c++ {
		answered.Add(1)
		go func(c int) {
			defer answered.Done()
			cl, err := kvclient.DialUDP(udp.Addr().String(), 2*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				if _, err := cl.Get("k"); err == nil {
					got[c]++
				}
			}
		}(c)
	}

	// Malformed traffic in parallel bumps the dropped counter.
	const malformed = 40
	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < malformed; i++ {
		if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}

	answered.Wait()
	close(stop)
	pollers.Wait()

	totalGot := 0
	for c, n := range got {
		if n == 0 {
			t.Errorf("client %d got zero answers", c)
		}
		totalGot += n
	}
	// Every answered Get was counted by exactly one handler goroutine;
	// retried/timed-out requests may add more, never fewer.
	waitCounter(t, srv, "live.udp.handled", float64(totalGot))
	waitCounter(t, srv, "live.udp.dropped", malformed)
}

// waitCounter polls one of srv's probes until it reaches want (a
// datagram is counted after its reply is sent, and the serve loop may
// still be draining datagrams after the clients return).
func waitCounter(t *testing.T, srv *Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := probeValue(srv.Probes(), name); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want >= %v", name, probeValue(srv.Probes(), name), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestUDPCloseDuringTraffic closes the listener while handlers are in
// flight; the serve loop and handlers share the closed flag and the
// socket, so this must shut down race-free without panics.
func TestUDPCloseDuringTraffic(t *testing.T) {
	srv, _ := startServer(t)
	udp, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 32<<10) // multi-datagram responses keep handlers busy
	if err := srv.Store().Set("big", big, 0, 0); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := "get big\r\n"
	frame := make([]byte, 8+len(payload))
	frame[1] = 1 // request id 1
	frame[5] = 1 // datagram count 1
	copy(frame[8:], payload)
	for i := 0; i < 64; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := udp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Closing twice must stay safe.
	_ = udp.Close()
	_ = srv.Probes()
}
