package kvserver

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
)

// UDP sessions run with the server's whole env. Before the session core
// ListenUDP copied two of a session's four dependencies by hand, so
// writes over UDP were never replicated and never met the in-flight
// gate.

// udpAsk sends one request datagram and returns the payload of the
// (single-datagram) reply.
func udpAsk(t *testing.T, u *UDPServer, payload string) string {
	t.Helper()
	conn, err := net.Dial("udp", u.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := make([]byte, protocol.UDPHeaderLen, protocol.UDPHeaderLen+len(payload))
	protocol.PutUDPHeader(frame, 7, 0, 1)
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply to %q: %v", payload, err)
	}
	if n < protocol.UDPHeaderLen {
		t.Fatalf("reply to %q is %d bytes, shorter than a frame header", payload, n)
	}
	return string(buf[protocol.UDPHeaderLen:n])
}

// callLog is a Replicator that records its calls.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(format string, args ...any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
	return nil
}

func (l *callLog) ReplicateSet(key string, value []byte, flags uint32, exptime int64, mode protocol.ReplMode) error {
	return l.add("set %s %s %d %d %v", key, value, flags, exptime, mode)
}

func (l *callLog) ReplicateDelete(key string, mode protocol.ReplMode) error {
	return l.add("delete %s %v", key, mode)
}

func (l *callLog) ReplicateTouch(key string, exptime int64, mode protocol.ReplMode) error {
	return l.add("touch %s %d %v", key, exptime, mode)
}

func (l *callLog) ReplicateFlush(delay int64, mode protocol.ReplMode) error {
	return l.add("flush %d %v", delay, mode)
}

func TestUDPSetReplicates(t *testing.T) {
	want := []string{"set k v 3 0 default", "touch k 60 default", "delete k default", "flush 0 default"}
	for _, order := range []string{"Options.Repl", "SetReplicator before ListenUDP", "SetReplicator after ListenUDP"} {
		t.Run(order, func(t *testing.T) {
			st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
			if err != nil {
				t.Fatal(err)
			}
			repl := &callLog{}
			var opts Options
			if order == "Options.Repl" {
				opts.Repl = repl
			}
			srv := NewWithOptions(st, nil, opts)
			if order == "SetReplicator before ListenUDP" {
				srv.SetReplicator(repl)
			}
			u, err := srv.ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			if order == "SetReplicator after ListenUDP" {
				srv.SetReplicator(repl)
			}
			for _, step := range [][2]string{
				{"set k 3 0 1\r\nv\r\n", "STORED\r\n"},
				{"touch k 60\r\n", "TOUCHED\r\n"},
				{"delete k\r\n", "DELETED\r\n"},
				{"flush_all\r\n", "OK\r\n"},
			} {
				if got := udpAsk(t, u, step[0]); got != step[1] {
					t.Fatalf("%q answered %q, want %q", step[0], got, step[1])
				}
			}
			repl.mu.Lock()
			defer repl.mu.Unlock()
			if !reflect.DeepEqual(repl.calls, want) {
				t.Fatalf("replicator saw %q, want %q", repl.calls, want)
			}
		})
	}
}

func TestUDPHonoursInflightGate(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{MaxInflight: 1})
	u, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	gate := srv.sessionEnv().Gate
	if !gate.TryAcquire() {
		t.Fatal("could not take the only in-flight slot")
	}
	if got := udpAsk(t, u, "get k\r\n"); got != "SERVER_ERROR busy\r\n" {
		t.Fatalf("get with the gate full answered %q, want a busy refusal", got)
	}
	probe := func() float64 {
		for _, p := range srv.Probes() {
			if p.Name == "live.server.rejected.busy" {
				return p.Value
			}
		}
		t.Fatal("no live.server.rejected.busy probe")
		return 0
	}
	if got := probe(); got != 1 {
		t.Fatalf("live.server.rejected.busy = %v after one shed UDP get, want 1", got)
	}
	gate.Release()
	if got := udpAsk(t, u, "get k\r\n"); got != "END\r\n" {
		t.Fatalf("get with the gate free answered %q, want END", got)
	}
}

// TestUDPBytesPerDatagram: a datagram's session is sized to the
// datagram. It used to get the 2 x 64 KiB buffers of a TCP connection
// plus a fresh fragment frame — over 128 KiB of garbage to answer a
// request of some tens of bytes.
func TestUDPBytesPerDatagram(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k", make([]byte, 100), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{})
	u, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	conn, err := net.Dial("udp", u.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := make([]byte, protocol.UDPHeaderLen, 64)
	protocol.PutUDPHeader(req, 1, 0, 1)
	req = append(req, "get k\r\n"...)
	reply := make([]byte, 2048)
	ask := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(reply); err != nil {
			t.Fatal(err)
		}
	}
	ask() // warm up: first-use allocations are not per datagram
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		ask()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 8<<10 {
		t.Fatalf("%d bytes allocated per UDP get, want < 8 KiB", per)
	} else {
		t.Logf("%d bytes allocated per UDP get", per)
	}
}
