package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// stepGate scripts TryAcquire outcomes: call i returns pattern[i]
// (false once the pattern is exhausted).
type stepGate struct {
	pattern  []bool
	calls    int
	acquired int
	released int
}

func (g *stepGate) TryAcquire() bool {
	ok := g.calls < len(g.pattern) && g.pattern[g.calls]
	g.calls++
	if ok {
		g.acquired++
	}
	return ok
}

func (g *stepGate) Release() { g.released++ }

func admitAll(n int) *stepGate {
	p := make([]bool, n)
	for i := range p {
		p[i] = true
	}
	return &stepGate{pattern: p}
}

func runGated(t *testing.T, gate Gate, input string) string {
	t.Helper()
	buf := &rwBuffer{in: bytes.NewReader([]byte(input))}
	if err := ServeConn(newStore(t), buf, Env{Gate: gate}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return buf.out.String()
}

func TestGateShedsGetWithBusy(t *testing.T) {
	out := runGated(t, &stepGate{}, "get foo\r\n")
	if out != "SERVER_ERROR busy\r\n" {
		t.Fatalf("out = %q", out)
	}
}

// The critical stream-sync property: a shed store command must still
// consume its data block, or the block's bytes would be parsed as the
// next command.
func TestGateShedsStoreKeepingStreamSync(t *testing.T) {
	g := &stepGate{pattern: []bool{false, true}} // refuse the set, admit the following get
	out := runGated(t, g, "set foo 0 0 8\r\nget evil\r\nget foo\r\n")
	want := "SERVER_ERROR busy\r\nEND\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q (data block leaked into the command stream?)", out, want)
	}
	if g.released != 1 {
		t.Fatalf("released = %d, want 1", g.released)
	}
}

func TestGateShedsNoreplySilently(t *testing.T) {
	// The shed noreply set produces no output; the admitted get misses
	// because the set never executed.
	g := &stepGate{}
	out := runGated(t, g, "set foo 0 0 5 noreply\r\nhello\r\n")
	if out != "" {
		t.Fatalf("noreply shed produced output %q", out)
	}
}

func TestGateStillHonorsQuit(t *testing.T) {
	out := runGated(t, &stepGate{}, "quit\r\n")
	if out != "" {
		t.Fatalf("quit under load produced output %q", out)
	}
}

func TestGateBalancedAcquireRelease(t *testing.T) {
	g := admitAll(100)
	runGated(t, g, "set foo 1 0 3\r\nbar\r\nget foo\r\ndelete foo\r\n")
	if g.acquired != 3 || g.released != 3 {
		t.Fatalf("acquired %d released %d, want 3/3", g.acquired, g.released)
	}
}

func TestBinaryGateShedsWithStatusBusy(t *testing.T) {
	frame := func(opcode byte, key string) []byte {
		b := make([]byte, binHeaderLen+len(key))
		b[0] = MagicRequest
		b[1] = opcode
		binary.BigEndian.PutUint16(b[2:], uint16(len(key)))
		binary.BigEndian.PutUint32(b[8:], uint32(len(key)))
		copy(b[binHeaderLen:], key)
		return b
	}
	var input bytes.Buffer
	input.Write(frame(OpGet, "foo"))
	input.Write(frame(OpGetQ, "foo")) // quiet: shed silently
	input.Write(frame(OpQuit, ""))

	buf := &rwBuffer{in: bytes.NewReader(input.Bytes())}
	if err := ServeConn(newStore(t), buf, Env{Gate: &stepGate{}}); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("serve: %v", err)
	}
	out := buf.out.Bytes()
	// First response: busy for the OpGet.
	if len(out) < binHeaderLen {
		t.Fatalf("no response frame, out = %x", out)
	}
	if got := binary.BigEndian.Uint16(out[6:]); got != StatusBusy {
		t.Fatalf("status = %#04x, want StatusBusy", got)
	}
	// Exactly two frames came back: the busy and the quit's OK (the
	// quiet get was shed without a response).
	h1 := parseBinHeader(out[:binHeaderLen])
	rest := out[binHeaderLen+int(h1.bodyLen):]
	if len(rest) != binHeaderLen {
		t.Fatalf("expected exactly one more frame, got %d bytes", len(rest))
	}
	if rest[1] != OpQuit {
		t.Fatalf("second frame opcode = %#02x, want quit", rest[1])
	}
}
