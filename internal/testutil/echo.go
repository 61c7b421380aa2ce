package testutil

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

// EchoServer listens on loopback TCP and answers every reqLen bytes a
// connection sends with reply, from one goroutine per connection and
// with no parsing: the floor under any server's round trip on the same
// stack (a goroutine wake-up, one read and one write per request). It
// returns the address; the listener and its connections close, and
// their goroutines are joined, when the test or benchmark ends.
func EchoServer(tb testing.TB, reqLen int, reply []byte) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn // guarded by mu
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, reqLen)
				for {
					if _, err := io.ReadFull(conn, buf); err != nil {
						return
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	tb.Cleanup(func() {
		err := ln.Close()
		mu.Lock()
		for _, c := range conns {
			err = errors.Join(err, c.Close())
		}
		mu.Unlock()
		wg.Wait()
		if err != nil && !errors.Is(err, net.ErrClosed) {
			tb.Error(err)
		}
	})
	return ln.Addr().String()
}
