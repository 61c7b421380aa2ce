package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kv3d/internal/kvclient"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// startFlightServer runs a server with a fake clock and full sampling
// (FlightEvery=1) so a scripted session records every op.
func startFlightServer(t *testing.T) (*Server, *obs.FlightRecorder[sim.Ns], string) {
	t.Helper()
	rec := obs.NewFlightRecorder[sim.Ns]("server", 256)
	srv := NewWithOptions(steppedStore(t, 32<<20), nil, Options{
		Flight:      rec,
		FlightEvery: 1,
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv, rec, srv.Addr().String()
}

// waitIdle waits for all connection handlers to finish, so lifecycle
// events land in the ring in a deterministic order.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still has %d active conns", srv.Active())
		}
		time.Sleep(time.Millisecond)
	}
}

// scriptASCII runs a fixed command sequence over one raw TCP
// connection: set, single get, multiget (one hit one miss), delete,
// quit.
func scriptASCII(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(cmd string, wantLines int) {
		t.Helper()
		if _, err := io.WriteString(conn, cmd); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < wantLines; i++ {
			if _, err := br.ReadString('\n'); err != nil {
				t.Fatalf("reading response to %q: %v", cmd, err)
			}
		}
	}
	send("set k 0 0 1\r\nv\r\n", 1) // STORED
	send("get k\r\n", 3)            // VALUE, v, END
	send("get k missing\r\n", 3)    // VALUE, v, END
	send("delete k\r\n", 1)         // DELETED
	if _, err := io.WriteString(conn, "quit\r\n"); err != nil {
		t.Fatal(err)
	}
}

// binFrame assembles one binary request frame.
func binFrame(opcode byte, opaque uint32, extras, key, value []byte) []byte {
	buf := make([]byte, 24+len(extras)+len(key)+len(value))
	buf[0] = 0x80
	buf[1] = opcode
	binary.BigEndian.PutUint16(buf[2:], uint16(len(key)))
	buf[4] = byte(len(extras))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(buf[12:], opaque)
	n := copy(buf[24:], extras)
	n += copy(buf[24+n:], key)
	copy(buf[24+n:], value)
	return buf
}

// scriptBinary runs set + get + quit with distinct opaque values, so
// the golden trace carries opaque-correlated async spans.
func scriptBinary(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var extras [8]byte // flags 0, exptime 0
	var req []byte
	req = append(req, binFrame(0x01, 0xbeef, extras[:], []byte("bk"), []byte("bv"))...) // set
	req = append(req, binFrame(0x00, 0xcafe, nil, []byte("bk"), nil)...)                // get
	req = append(req, binFrame(0x07, 0xf00d, nil, nil, nil)...)                         // quit
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	// Drain all responses until the server closes the stream after quit.
	io.Copy(io.Discard, conn) //nolint:errcheck
}

func runFlightGolden(t *testing.T) []byte {
	t.Helper()
	srv, rec, addr := startFlightServer(t)
	defer srv.Close()
	scriptASCII(t, addr)
	waitIdle(t, srv)
	scriptBinary(t, addr)
	waitIdle(t, srv)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlightGolden pins the live trace serialization: the same scripted
// session against a fake clock must produce byte-identical,
// Perfetto-loadable output, checked against a committed golden file.
// Regenerate with
//
//	go test ./internal/kvserver -run TestFlightGolden -update
func TestFlightGolden(t *testing.T) {
	got := runFlightGolden(t)
	if again := runFlightGolden(t); !bytes.Equal(got, again) {
		t.Fatalf("same script produced different trace bytes across runs:\n%s\nvs\n%s", got, again)
	}
	if !json.Valid(got) {
		t.Fatal("flight trace is not valid JSON")
	}

	path := filepath.Join("testdata", "flight_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flight trace drifted from golden (len %d vs %d); run with -update if intended",
			len(got), len(want))
	}
}

// TestFlightGoldenContent checks the recorded span kinds independent of
// exact bytes: per-op class spans with outcomes, the three phase
// children, lifecycle instants, and opaque-keyed async correlation.
func TestFlightGoldenContent(t *testing.T) {
	got := runFlightGolden(t)
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			ID   string `json:"id"`
			Args struct {
				Outcome string `json:"outcome"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	ids := map[string]int{}
	outcomes := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph+"/"+ev.Name]++
		if ev.ID != "" {
			ids[ev.ID]++
		}
		if ev.Args.Outcome != "" {
			outcomes[ev.Args.Outcome]++
		}
	}
	for _, want := range []string{
		"X/get", "X/store", "X/delete", "X/other",
		"X/parse", "X/execute", "X/write",
		"i/conn.open", "i/conn.close",
		"b/store", "e/store", "b/get", "e/get",
		"C/conns.active",
	} {
		if counts[want] == 0 {
			t.Errorf("flight trace missing %q events: %v", want, counts)
		}
	}
	// The binary script's opaques, decimal-rendered: 0xbeef and 0xcafe
	// must each appear as one async begin + one async end. (The quit
	// frame's opaque also correlates.)
	for _, id := range []string{"48879", "51966"} {
		if ids[id] != 2 {
			t.Errorf("opaque id %s appears %d times, want 2 (async begin+end): %v", id, ids[id], ids)
		}
	}
	if outcomes["ok"] == 0 {
		t.Errorf("no ok-outcome spans recorded: %v", outcomes)
	}
}

// TestFlightRecordsRefusalsAndDrain: an accept refused by MaxConns and
// the server's Close, which drains its handlers, each leave their
// lifecycle instant in the trace.
func TestFlightRecordsRefusalsAndDrain(t *testing.T) {
	testutil.CheckGoroutines(t)
	rec := obs.NewFlightRecorder[sim.Ns]("server", 256)
	srv := NewWithOptions(steppedStore(t, 16<<20), nil, Options{Flight: rec, MaxConns: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	addr := srv.Addr().String()

	// The one connection MaxConns allows, open until Close.
	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	refused := func() {
		t.Helper()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		if got, _ := io.ReadAll(raw); string(got) != "SERVER_ERROR busy\r\n" {
			t.Fatalf("refused connection read %q", got)
		}
	}
	refused()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	instants := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			instants[ev.Name] = true
		}
	}
	for _, want := range []string{"reject.max_conns", "server.close"} {
		if !instants[want] {
			t.Errorf("trace has no %q instant; instants: %v", want, instants)
		}
	}
}
