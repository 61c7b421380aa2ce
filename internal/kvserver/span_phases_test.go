package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"

	"kv3d/internal/obs"
	"kv3d/internal/sim"
)

// TestSpanPhasesPerVerb reads one op's span per verb per
// codec from the flight recorder of a server on a clock that steps one
// microsecond per read. A request's op clock starts when its head has
// been read, parse ends when the session core starts executing it and
// execute ends when the store call and any replication return; nothing
// else reads the clock until the op ends. So for every verb of both
// codecs the parse and write phases are one step each and execute at
// least one, whatever the verb and the codec. A verb whose codec
// stamped neither would show a parse and an execute of 0 and a write
// of 3.
func TestSpanPhasesPerVerb(t *testing.T) {
	rec := obs.NewFlightRecorder[sim.Ns]("server", 4096)
	srv := NewWithOptions(steppedStore(t, 32<<20), nil, Options{Flight: rec, FlightEvery: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	// ASCII: one request per verb, each reply read to its end before
	// the next request is sent, so each is a run of its own.
	asciiVerbs := []string{
		"set k 0 0 1\r\n5\r\n", "add a 0 0 1\r\na\r\n", "replace a 0 0 1\r\nb\r\n",
		"append a 0 0 1\r\nc\r\n", "prepend a 0 0 1\r\nd\r\n", "cas a 0 0 1 1\r\ne\r\n",
		"get k\r\n", "gets k a\r\n", "incr k 1\r\n", "decr k 1\r\n", "touch k 100\r\n",
		"delete a\r\n", "stats\r\n", "flush_all\r\n", "version\r\n", "verbosity 1\r\n", "quit\r\n",
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for _, req := range asciiVerbs {
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		verb, _, _ := strings.Cut(req, " ")
		for verb != "quit\r\n" {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: %v", req, err)
			}
			if line == "END\r\n" || verb != "get" && verb != "gets" && verb != "stats\r\n" {
				break
			}
		}
	}
	io.Copy(io.Discard, br) //nolint:errcheck // the server closes after quit
	conn.Close()
	waitIdle(t, srv)

	// Binary: one frame per opcode; a quiet one is followed by a noop,
	// whose reply says it was served.
	var extras8 [8]byte
	incr := make([]byte, 20)
	touch := []byte{0, 0, 0, 100}
	type frame struct {
		opcode byte
		extras []byte
		key    string
		value  string
	}
	binVerbs := []frame{
		{0x01, extras8[:], "bk", "7"}, {0x11, extras8[:], "bk", "8"}, {0x02, extras8[:], "ba", "a"},
		{0x12, extras8[:], "bb", "b"}, {0x03, extras8[:], "ba", "c"}, {0x13, extras8[:], "bb", "d"},
		{0x0e, nil, "ba", "e"}, {0x19, nil, "ba", "f"}, {0x0f, nil, "ba", "g"}, {0x1a, nil, "ba", "h"},
		{0x00, nil, "bk", ""}, {0x09, nil, "bk", ""}, {0x0c, nil, "bk", ""}, {0x0d, nil, "bk", ""},
		{0x05, incr, "bk", ""}, {0x15, incr, "bk", ""}, {0x06, incr, "bk", ""}, {0x16, incr, "bk", ""},
		{0x1c, touch, "bk", ""}, {0x04, nil, "ba", ""}, {0x14, nil, "bb", ""},
		{0x10, nil, "", ""}, {0x08, nil, "", ""}, {0x18, nil, "", ""},
		{0x0a, nil, "", ""}, {0x0b, nil, "", ""}, {0x07, nil, "", ""},
	}
	if conn, err = net.Dial("tcp", addr); err != nil {
		t.Fatal(err)
	}
	var hdr [24]byte
	wantOps := 0
	for i, f := range binVerbs {
		req := binFrame(f.opcode, uint32(i+1), f.extras, []byte(f.key), []byte(f.value))
		wantOps++
		until := f.opcode
		if quietOpcode(f.opcode) {
			req = append(req, binFrame(0x0a, 0, nil, nil, nil)...)
			until, wantOps = 0x0a, wantOps+1
		}
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if f.opcode == 0x07 {
			break
		}
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				t.Fatalf("opcode %#x: %v", f.opcode, err)
			}
			io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[8:]))) //nolint:errcheck
			if hdr[1] == until && (until != 0x10 || binary.BigEndian.Uint16(hdr[2:]) == 0) {
				break
			}
		}
	}
	io.Copy(io.Discard, conn) //nolint:errcheck
	conn.Close()
	waitIdle(t, srv)

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Dur  int64  `json:"dur"`
			Args struct {
				Outcome string `json:"outcome"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ops := map[int]int{} // per track: ops seen
	events := doc.TraceEvents
	for i := 0; i+3 < len(events); i++ {
		op := events[i]
		if op.Ph != "X" || op.Args.Outcome == "" {
			continue
		}
		parse, exec, write := events[i+1], events[i+2], events[i+3]
		if parse.Name != "parse" || exec.Name != "execute" || write.Name != "write" {
			t.Fatalf("event %d: %s not followed by its three phases", i, op.Name)
		}
		ops[op.Tid]++
		if op.Args.Outcome != "ok" || parse.Dur != 1 || exec.Dur < 1 || write.Dur != 1 {
			t.Errorf("track %d op %d (%s, %s): parse %d, execute %d, write %d µs; want 1, at least 1, 1",
				op.Tid, ops[op.Tid], op.Name, op.Args.Outcome, parse.Dur, exec.Dur, write.Dur)
		}
	}
	if ops[2] != len(asciiVerbs) || ops[3] != wantOps {
		t.Errorf("%d ASCII and %d binary spans recorded, want %d and %d", ops[2], ops[3], len(asciiVerbs), wantOps)
	}
}

// quietOpcode reports whether a binary opcode suppresses its success
// reply.
func quietOpcode(op byte) bool { return op == 0x09 || op == 0x0d || op >= 0x11 && op <= 0x1a }
