package protocol

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"syscall"
	"testing"

	"kv3d/internal/kvstore"
)

// BenchmarkLargeGet is the sweep pinThreshold was chosen from: one
// binary GET per round trip over loopback TCP, at each candidate
// threshold's value size, served by copying the value (a threshold
// above it) and by sending it pinned (a threshold at it). Besides the
// round trip it reports cpu-ns/op, the process's user+system CPU per
// GET: the client's share is the same on both paths, so the difference
// is the server's.
//
//	go test -run '^$' -bench LargeGet -count 10 ./internal/protocol
func BenchmarkLargeGet(b *testing.B) {
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		for _, path := range []struct {
			name    string
			pinFrom int
		}{{"copy", math.MaxInt}, {"pinned", size}} {
			b.Run(fmt.Sprintf("%s/%dKiB", path.name, size>>10), func(b *testing.B) {
				benchLargeGet(b, size, path.pinFrom)
			})
		}
	}
}

func benchLargeGet(b *testing.B, size, pinFrom int) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Set("k", bytes.Repeat([]byte{'v'}, size), 0, 0); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = serveConn(st, conn, Env{}, pinFrom, 0)
			conn.Close()
		}
		served <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	req := []byte{MagicRequest, OpGet, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'k'}
	reply := make([]byte, binHeaderLen+4+size)
	b.SetBytes(int64(size))
	cpu0 := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(processCPU()-cpu0)/float64(b.N), "cpu-ns/op")
	conn.Close()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLargeSet is BenchmarkLargeGet's write half: one binary SET
// of the same key per round trip over loopback TCP, its value copied
// into session scratch and then into the chunk (a threshold above it),
// or read from the socket straight into the chunk the store reserves
// for it (pinThreshold). Every set after the first overwrites a chunk
// already faulted in, so this is the copy alone; what prefaulting saves
// on fresh slab memory shows in photo_get's setup_s.
//
//	go test -run '^$' -bench LargeSet -count 10 ./internal/protocol
func BenchmarkLargeSet(b *testing.B) {
	for _, size := range []int{16 << 10, 64 << 10, 256 << 10, 512 << 10} {
		for _, path := range []struct {
			name    string
			pinFrom int
		}{{"copy", math.MaxInt}, {"received", pinThreshold}} {
			b.Run(fmt.Sprintf("%s/%dKiB", path.name, size>>10), func(b *testing.B) {
				benchLargeSet(b, size, path.pinFrom)
			})
		}
	}
}

func benchLargeSet(b *testing.B, size, pinFrom int) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = serveConn(st, conn, Env{}, pinFrom, 0)
			conn.Close()
		}
		served <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	req := frame(OpSet, "k", setExtras(0, 0), bytes.Repeat([]byte{'v'}, size), 0, 1)
	reply := make([]byte, binHeaderLen)
	b.SetBytes(int64(size))
	cpu0 := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			b.Fatal(err)
		}
		if reply[7] != StatusOK {
			b.Fatalf("set answered status %#x", reply[6:8])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(processCPU()-cpu0)/float64(b.N), "cpu-ns/op")
	conn.Close()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}

// processCPU is the user+system CPU time the process has used, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}
