package kvserver

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"sync/atomic"

	"kv3d/internal/protocol"
)

// UDP support. The frame format and parser live in internal/protocol
// (see udpframe.go, where the format is documented and fuzzed); this
// file owns the sockets, goroutines and response fragmentation:
// responses larger than one datagram are split with increasing
// sequence numbers.
const (
	udpHeaderLen  = protocol.UDPHeaderLen
	udpMaxPayload = protocol.UDPMaxPayload
	udpReadBuffer = 64 << 10
	// udpMaxInflight bounds concurrent datagram handlers. Without it a
	// request burst spawns one goroutine per datagram with no ceiling —
	// the lifecycle/spawnloop shape — and a slow store turns load
	// directly into unbounded memory. At the bound the read loop stops
	// pulling datagrams and the kernel socket buffer does the shedding.
	udpMaxInflight = 128
)

// UDPServer answers memcached ASCII commands over UDP: datagram framing
// around the same sessions, with the same dependencies, as the server's
// TCP connections.
type UDPServer struct {
	srv  *Server
	conn *net.UDPConn

	// flight sampling happens per datagram (sessions are one-shot, so a
	// per-session counter would trace every first op): one datagram in
	// every FlightEvery gets its ops traced on the srv.udp track.
	flightSeq atomic.Uint64

	mu     sync.Mutex
	closed bool //kv3d:guardedby mu

	// sem bounds in-flight handlers (udpMaxInflight); handlers counts
	// them so Close can wait for the last response to be written. served
	// closes when the read loop, the one caller of handlers.Add, returns:
	// Close waits for it first, so no Add races the Wait.
	sem      chan struct{}
	handlers sync.WaitGroup
	served   chan struct{}
}

// ListenUDP binds a UDP memcached endpoint for the server's store.
func (s *Server) ListenUDP(addr string) (*UDPServer, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, err
	}
	u := &UDPServer{srv: s, conn: conn, sem: make(chan struct{}, udpMaxInflight), served: make(chan struct{})}
	go u.serve()
	return u, nil
}

// Addr reports the bound UDP address.
func (u *UDPServer) Addr() net.Addr { return u.conn.LocalAddr() }

// Close stops the UDP listener and waits for in-flight datagram
// handlers to finish writing their responses.
func (u *UDPServer) Close() error {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	<-u.served
	u.handlers.Wait()
	return err
}

func (u *UDPServer) serve() {
	defer close(u.served)
	buf := make([]byte, udpReadBuffer)
	for {
		n, peer, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		reqID, src, err := protocol.ParseUDPRequest(buf[:n])
		if err != nil {
			u.drop()
			continue
		}
		payload := make([]byte, len(src))
		copy(payload, src)
		u.sem <- struct{}{}
		u.handlers.Add(1)
		go u.handle(reqID, payload, peer)
	}
}

// release frees one handler's semaphore slot and WaitGroup count (a
// method rather than a closure so the hot-path defer does not allocate
// a capture environment).
func (u *UDPServer) release() {
	<-u.sem
	u.handlers.Done()
}

func (u *UDPServer) drop() { u.srv.udpDropped.Add(1) }

// handle runs the ASCII command(s) in one datagram and sends the
// (possibly fragmented) response. The session's buffers are sized to
// the datagram: a reader over the payload (which never blocks, so
// replies appear as the writer fills and when Serve returns) and a
// writer of one fragment. The caller (serve) has already acquired a
// semaphore slot and registered the handler with the WaitGroup; the
// deferred release undoes both.
//
//kv3d:hotpath
func (u *UDPServer) handle(reqID uint16, payload []byte, peer *net.UDPAddr) {
	defer u.release()
	env := u.srv.sessionEnv()
	if env.Flight != nil {
		if (u.flightSeq.Add(1)-1)%uint64(env.FlightEvery) == 0 {
			env.Flight, env.FlightEvery = &u.srv.flight.datagrams, 1
		} else {
			env.Flight = nil
		}
	}
	// The reply is staged behind room for one frame header, so every
	// fragment goes out from where it lies.
	var resp bytes.Buffer
	var room [udpHeaderLen]byte
	resp.Write(room[:])
	r := bufio.NewReaderSize(bytes.NewReader(payload), len(payload))
	w := bufio.NewWriterSize(&resp, udpMaxPayload)
	_ = protocol.NewSessionBuffered(u.srv.store, r, w, env).Serve() // errors end the session; whatever response was produced still goes back to the peer

	out := resp.Bytes()
	total := max(1, (len(out)-udpHeaderLen+udpMaxPayload-1)/udpMaxPayload)
	if total > 0xffff {
		u.drop()
		return
	}
	for seq := 0; seq < total; seq++ {
		// Fragment seq's header overwrites the last bytes of fragment
		// seq-1's payload, which has been sent.
		frame := out[seq*udpMaxPayload:]
		if len(frame) > udpHeaderLen+udpMaxPayload {
			frame = frame[:udpHeaderLen+udpMaxPayload]
		}
		protocol.PutUDPHeader(frame, reqID, uint16(seq), uint16(total))
		if _, err := u.conn.WriteToUDP(frame, peer); err != nil {
			// A datagram that never reached the peer is neither handled
			// nor silently gone: count it so live.udp.dropped reflects
			// response losses, not just malformed requests.
			u.drop()
			return
		}
	}
	u.srv.udpHandled.Add(1)
}
