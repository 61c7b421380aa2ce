package kv3d

// Allocation gates for the //kv3d:hotpath functions (see LINTING.md):
// every annotated function runs under at least one of these
// testing.AllocsPerRun gates (internal/kvserver/alloc_test.go has the
// two whose functions are unexported there), so an allocation seeded
// into a hot path fails a test, whatever its shape. The contracts:
//
//   - A disabled (nil) obs.FlightRecorder costs zero allocations per
//     event, so model and server code can instrument unconditionally;
//     so do a recording ring and the simulator's event dispatch.
//   - The ASCII and binary GET paths — read, parse, the one execute,
//     store lookup, response write, pipelined runs of binary frames
//     and of ASCII lines included — and the SET paths, down to the rewrite
//     of a resident item's chunk, allocate nothing per operation in
//     steady state. Per-session setup (bufio buffers, scratch growth on
//     first use) is allowed; per-op cost must be flat.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"kv3d/internal/clock"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// TestTracerDisabledZeroAlloc pins the simulator's nil-recorder fast
// path: model code traces unconditionally, so a disabled sim.Time
// recorder must cost nothing per event.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *obs.FlightRecorder[sim.Time] // nil = disabled simulator trace
	track := tr.RegisterTrack("x")
	allocs := testing.AllocsPerRun(100, func() {
		tr.Complete(track, "op", "", 0, 10)
		tr.Instant(track, "mark", 5)
		tr.Counter(track, "depth", 5, 1)
		tr.AsyncBegin("req", "r", 1, 0)
		tr.AsyncEnd("req", "r", 1, 10)
	})
	if allocs != 0 {
		t.Fatalf("disabled sim.Time FlightRecorder allocates %v per event batch, want 0", allocs)
	}
}

// TestFlightRecorderDisabledZeroAlloc pins the server's nil-recorder
// fast path: instrumented code records unconditionally, so a disabled
// flight recorder must cost nothing per event.
func TestFlightRecorderDisabledZeroAlloc(t *testing.T) {
	var rec *obs.FlightRecorder[sim.Ns] // nil = server recording off
	track := rec.RegisterTrack("x")
	allocs := testing.AllocsPerRun(100, func() {
		rec.Complete(track, "op", "ok", 0, 10)
		rec.Instant(track, "mark", 5)
		rec.Counter(track, "depth", 5, 1)
		rec.AsyncBegin("op", "r", 1, 0)
		rec.AsyncEnd("op", "r", 1, 10)
	})
	if allocs != 0 {
		t.Fatalf("disabled FlightRecorder allocates %v per event batch, want 0", allocs)
	}
}

// TestFlightRecorderRecordZeroAlloc pins the enabled record path: the
// ring slots are preallocated and names are constant strings, so
// recording into a live ring must also be alloc-free — the recorder is
// safe on the request hot path even when tracing is on.
func TestFlightRecorderRecordZeroAlloc(t *testing.T) {
	rec := obs.NewFlightRecorder[sim.Ns]("gate", 64)
	track := rec.RegisterTrack("x")
	allocs := testing.AllocsPerRun(100, func() {
		rec.Complete(track, "op", "ok", 0, 10)
		rec.Instant(track, "mark", 5)
		rec.Counter(track, "depth", 5, 1)
		rec.AsyncBegin("op", "r", 1, 0)
		rec.AsyncEnd("op", "r", 1, 10)
	})
	if allocs != 0 {
		t.Fatalf("enabled FlightRecorder allocates %v per event batch, want 0", allocs)
	}
}

// flightGateSink mirrors the server's flight sink shape: one enclosing
// span plus the three phases per op, recorded from ObserveSpan.
type flightGateSink struct {
	rec   *obs.FlightRecorder[sim.Ns]
	track obs.TrackID
}

func (s *flightGateSink) ObserveSpan(sp protocol.OpSpan) {
	s.rec.Complete(s.track, sp.Class.String(), sp.Outcome.String(), sp.Start, sp.End)
	s.rec.Complete(s.track, "parse", "", sp.Start, sp.ParseDone)
	s.rec.Complete(s.track, "execute", "", sp.ParseDone, sp.ExecDone)
	s.rec.Complete(s.track, "write", "", sp.ExecDone, sp.End)
	if sp.Opaque != 0 {
		s.rec.AsyncBegin("op", sp.Class.String(), sp.Opaque, sp.Start)
		s.rec.AsyncEnd("op", sp.Class.String(), sp.Opaque, sp.End)
	}
}

// TestASCIIGetWithFlightZeroAllocPerOp re-runs the ASCII GET gate with
// span observation AND flight recording enabled at full sampling: the
// traced hot path must stay zero-alloc per op, not just the dark one.
func TestASCIIGetWithFlightZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k", []byte("0123456789abcdef"), 0, 0); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder[sim.Ns]("gate", 256)
	sink := &flightGateSink{rec: rec, track: rec.RegisterTrack("ops")}
	var nullObs nullObserver
	session := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString("get k\r\n")
		}
		b.WriteString("quit\r\n")
		return b.String()
	}
	serve := func(req string) {
		r := bufio.NewReaderSize(strings.NewReader(req), 4096)
		w := bufio.NewWriterSize(io.Discard, 4096)
		env := protocol.Env{Observer: nullObs, Clock: clock.NewFake(1000), Flight: sink, FlightEvery: 1}
		if err := protocol.NewSessionBuffered(st, r, w, env).Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	const small, large = 64, 2048
	reqSmall, reqLarge := session(small), session(large)
	allocsSmall := testing.AllocsPerRun(10, func() { serve(reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("flight-traced ASCII GET allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
}

// nullObserver drops observations; the gate measures the span pipeline,
// not histogram bucketing (OpMetrics is separately alloc-free).
type nullObserver struct{}

func (nullObserver) ObserveOp(protocol.OpClass, protocol.Outcome, int, sim.Ns) {}

// TestKVStoreStringKeysZeroAlloc gates the string-keyed wrappers: Set
// (through Put to PutBytes) overwriting a resident item, and GetInto
// reading it back, view the key's bytes and copy only into the chunk
// and the caller's dst.
func TestKVStoreStringKeysZeroAlloc(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("bench-value-0123456789")
	if err := st.Set("bench-key", val, 0, 0); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := st.Set("bench-key", val, 0, 0); err != nil {
			t.Fatal(err)
		}
		if out, _, ok := st.GetInto(dst, "bench-key"); !ok || len(out) != len(val) {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Set + GetInto allocate %v per op, want 0", allocs)
	}
}

// TestSimStepZeroAlloc gates the kernel's event dispatch: popping an
// event, running it and calling the dispatch hook allocate nothing.
// Scheduling allocates the event, so the queue is filled beforehand.
func TestSimStepZeroAlloc(t *testing.T) {
	s := sim.New()
	var ran, dispatched int
	fn := func() { ran++ }
	s.SetDispatchHook(func(sim.Time) { dispatched++ })
	for i := 0; i <= 100; i++ { // AllocsPerRun makes one warm-up call
		s.After(sim.Duration(i), fn)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !s.Step() {
			t.Fatal("queue ran dry")
		}
	})
	if allocs != 0 {
		t.Fatalf("Simulator.Step allocates %v per event, want 0", allocs)
	}
	if ran != 101 || dispatched != 101 {
		t.Fatalf("ran %d events, dispatched %d, want 101 each", ran, dispatched)
	}
}

// serveGets runs one ASCII session issuing n GET commands and returns
// nothing; all per-session state is allocated inside so AllocsPerRun
// measurements at different n isolate the per-op cost.
func serveGets(t *testing.T, st *kvstore.Store, req string) {
	t.Helper()
	r := bufio.NewReaderSize(strings.NewReader(req), 4096)
	w := bufio.NewWriterSize(io.Discard, 4096)
	sess := protocol.NewSessionBuffered(st, r, w, protocol.Env{})
	if err := sess.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestASCIIMultigetZeroAllocPerOp extends the GET gate to the batched
// server path: a 16-key multiget served through kvstore.GetBatchInto
// must not allocate per operation in steady state. Per-session setup
// (scratch growth on the first command) is identical at both command
// counts, so any difference is per-op cost.
func TestASCIIMultigetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 16; i++ {
		k := "key-" + string(rune('a'+i))
		keys = append(keys, k)
		if err := st.Set(k, []byte("0123456789abcdef"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	line := "get " + strings.Join(keys, " ") + "\r\n"
	session := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(line)
		}
		b.WriteString("quit\r\n")
		return b.String()
	}
	const small, large = 64, 1024
	reqSmall, reqLarge := session(small), session(large)

	allocsSmall := testing.AllocsPerRun(10, func() { serveGets(t, st, reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serveGets(t, st, reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("ASCII 16-key multiget allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
}

// TestKVStoreGetBatchIntoZeroAlloc measures the store-side batch call
// directly: with reused dst/out/scratch a 64-key batch is alloc-free.
func TestKVStoreGetBatchIntoZeroAlloc(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		k := []byte("batch-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		keys[i] = k
		if err := st.Set(string(k), []byte("bench-value-0123456789"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var scr kvstore.BatchScratch
	dst := make([]byte, 0, 4096)
	out := make([]kvstore.BatchResult, 0, 64)
	// Warm the scratch to its high-water mark.
	dst, out = st.GetBatchInto(dst[:0], keys, out[:0], &scr, math.MaxInt)
	allocs := testing.AllocsPerRun(100, func() {
		dst, out = st.GetBatchInto(dst[:0], keys, out[:0], &scr, math.MaxInt)
		if len(out) != len(keys) || !out[0].Found {
			t.Fatal("batch lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBatchInto allocates %v per op, want 0", allocs)
	}
}

// TestBinaryGetZeroAllocPerOp is the binary twin of the ASCII GET gate:
// a get frame keeps its key as bytes of the frame body and copies the
// value into session scratch, so the per-op cost is zero allocations
// (it was 5: key string, heap-copied value, response key/status slices).
func TestBinaryGetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k", []byte("0123456789abcdef"), 0, 0); err != nil {
		t.Fatal(err)
	}
	// One frame per opcode of the get family: key "k", nothing else.
	session := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			op := [...]byte{protocol.OpGet, protocol.OpGetQ, protocol.OpGetK, protocol.OpGetKQ}[i%4]
			b = append(b, protocol.MagicRequest, op, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'k')
		}
		return b
	}
	serve := func(req []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(req), 4096)
		w := bufio.NewWriterSize(io.Discard, 4096)
		if err := protocol.NewBinarySessionBuffered(st, r, w, protocol.Env{}).Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	const small, large = 64, 2048
	reqSmall, reqLarge := session(small), session(large)
	allocsSmall := testing.AllocsPerRun(10, func() { serve(reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("binary GET allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
}

// segmentConn is a transport that delivers one prepared segment per
// Read and discards what is written to it. A session with no idle
// timeout calls nothing else, so the embedded net.Conn stays nil.
type segmentConn struct {
	net.Conn
	segs [][]byte
}

func (c *segmentConn) Read(p []byte) (int, error) {
	if len(c.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segs[0])
	if c.segs[0] = c.segs[0][n:]; len(c.segs[0]) == 0 {
		c.segs = c.segs[1:]
	}
	return n, nil
}

func (c *segmentConn) Write(p []byte) (int, error) { return len(p), nil }

// TestBinaryGetRunZeroAllocPerOp gates the pipelined binary GET path: a
// session ServeConnIdle built, fed 16 get-family frames per transport read,
// serves each read as one run — one batched lookup, the replies staged
// in order — with the observer, the clock and flight spans of every
// frame all live, and allocates nothing per frame.
func TestBinaryGetRunZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := st.Set(k, []byte("0123456789abcdef"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var run []byte
	for i := 0; i < 16; i++ {
		op := [...]byte{protocol.OpGet, protocol.OpGetQ, protocol.OpGetK, protocol.OpGetKQ}[i%4]
		key := "abcdx"[i%5] // four hits and a miss
		run = append(run, protocol.MagicRequest, op, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, byte(i+1), 0, 0, 0, 0, 0, 0, 0, 0, key)
	}
	rec := obs.NewFlightRecorder[sim.Ns]("gate", 256)
	sink := &flightGateSink{rec: rec, track: rec.RegisterTrack("ops")}
	var nullObs nullObserver
	env := protocol.Env{Observer: nullObs, Clock: clock.NewFake(1000), Flight: sink, FlightEvery: 1}
	serve := func(runs int) {
		segs := make([][]byte, runs)
		for i := range segs {
			segs[i] = run
		}
		if err := protocol.ServeConnIdle(st, &segmentConn{segs: segs}, env, 0); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	const small, large = 8, 128 // runs of 16 frames
	allocsSmall := testing.AllocsPerRun(10, func() { serve(small) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(large) })
	if perOp := (allocsLarge - allocsSmall) / float64(16*(large-small)); perOp != 0 {
		t.Fatalf("a 16-frame binary GET run allocates %v per frame (session totals: %v @ %d runs, %v @ %d runs), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
	var trace bytes.Buffer
	if err := rec.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`"dur":`)) {
		t.Fatal("the flight recorder saw no spans")
	}
}

// TestASCIIGetRunZeroAllocPerOp is the ASCII twin of the binary run
// gate: 16 pipelined get and gets lines per transport read — single-
// and multi-key, hits and a miss — are served as one run on a session
// ServeConnIdle built, with the observer, the clock and a flight span
// of every line live; none of it allocates per line.
func TestASCIIGetRunZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := st.Set(k, []byte("0123456789abcdef"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var run []byte
	for i := 0; i < 16; i++ {
		line := []string{"get a\r\n", "gets b c\r\n", "get d x a\r\n", "gets x\r\n"}[i%4] // x misses
		run = append(run, line...)
	}
	rec := obs.NewFlightRecorder[sim.Ns]("gate", 256)
	sink := &flightGateSink{rec: rec, track: rec.RegisterTrack("ops")}
	var nullObs nullObserver
	env := protocol.Env{Observer: nullObs, Clock: clock.NewFake(1000), Flight: sink, FlightEvery: 1}
	serve := func(runs int) {
		segs := make([][]byte, runs)
		for i := range segs {
			segs[i] = run
		}
		if err := protocol.ServeConnIdle(st, &segmentConn{segs: segs}, env, 0); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	const small, large = 8, 128 // runs of 16 lines
	allocsSmall := testing.AllocsPerRun(10, func() { serve(small) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(large) })
	if perOp := (allocsLarge - allocsSmall) / float64(16*(large-small)); perOp != 0 {
		t.Fatalf("a 16-line ASCII GET run allocates %v per line (session totals: %v @ %d runs, %v @ %d runs), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
}

func TestASCIIGetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k", []byte("0123456789abcdef"), 0, 0); err != nil {
		t.Fatal(err)
	}
	session := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString("get k\r\n")
		}
		b.WriteString("quit\r\n")
		return b.String()
	}
	const small, large = 64, 2048
	reqSmall, reqLarge := session(small), session(large)

	// Per-session allocations (session struct, scratch growth on first
	// use) are identical for both sizes, so any difference is per-op
	// cost — which must be exactly zero.
	allocsSmall := testing.AllocsPerRun(10, func() { serveGets(t, st, reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serveGets(t, st, reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("ASCII GET allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
}

// TestASCIISetZeroAllocPerOp gates the ASCII store path: an overwrite of
// a resident key parses its arguments as tokens of the command line and
// hands key and data block to the store as they lie in the session's
// buffers, and the store rewrites the item's chunk in place. (It was one
// strings.Fields slice, its strings and the verb string per set, plus a
// key string per first store of a key.)
func TestASCIISetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	session := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString("set key:00000001 5 0 16\r\n0123456789abcdef\r\n")
		}
		b.WriteString("quit\r\n")
		return b.String()
	}
	const small, large = 64, 2048
	reqSmall, reqLarge := session(small), session(large)
	allocsSmall := testing.AllocsPerRun(10, func() { serveGets(t, st, reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serveGets(t, st, reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("ASCII SET allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
	if v, flags, ok := storedItem(st, "key:00000001"); !ok || v != "0123456789abcdef" || flags != 5 {
		t.Fatalf("after the sets, get = %q flags %d found %v", v, flags, ok)
	}
}

// storedItem reads key back through GetBatchInto, the store's read
// that reports flags.
func storedItem(st *kvstore.Store, key string) (value string, flags uint32, found bool) {
	dst, out := st.GetBatchInto(nil, [][]byte{[]byte(key)}, nil, new(kvstore.BatchScratch), math.MaxInt)
	return string(dst[out[0].Start:out[0].End]), out[0].Flags, out[0].Found
}

// TestBinarySetZeroAllocPerOp is the binary twin: key and value are
// slices of the frame body all the way into the chunk (the key used to
// become a string per frame, retained by the item on a first store and
// garbage on every overwrite).
func TestBinarySetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	// set / setq alternate: extras = flags 5, exptime 0; a 12-byte key.
	session := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			op := [...]byte{protocol.OpSet, protocol.OpSetQ}[i%2]
			b = append(b, protocol.MagicRequest, op, 0, 12, 8, 0, 0, 0, 0, 0, 0, 36, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
			b = append(b, 0, 0, 0, 5, 0, 0, 0, 0)
			b = append(b, "key:000000010123456789abcdef"...)
		}
		return b
	}
	serve := func(req []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(req), 4096)
		w := bufio.NewWriterSize(io.Discard, 4096)
		if err := protocol.NewBinarySessionBuffered(st, r, w, protocol.Env{}).Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	const small, large = 64, 2048
	reqSmall, reqLarge := session(small), session(large)
	allocsSmall := testing.AllocsPerRun(10, func() { serve(reqSmall) })
	allocsLarge := testing.AllocsPerRun(10, func() { serve(reqLarge) })
	if perOp := (allocsLarge - allocsSmall) / float64(large-small); perOp != 0 {
		t.Fatalf("binary SET allocates %v per op (session totals: %v @ %d ops, %v @ %d ops), want 0",
			perOp, allocsSmall, small, allocsLarge, large)
	}
	if v, flags, ok := storedItem(st, "key:00000001"); !ok || v != "0123456789abcdef" || flags != 5 {
		t.Fatalf("after the sets, get = %q flags %d found %v", v, flags, ok)
	}
}

// TestPinnedGetZeroAllocPerOp gates the large-value GET as a server
// connection serves it: over loopback TCP through protocol.ServeConnIdle, a
// 64 KiB hit is pinned in the store and written from its chunk by one
// writev, then unpinned — and none of that allocates, on either codec,
// nor for a multi-key ASCII get that sends two pinned values around a
// miss.
func TestPinnedGetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("photo"), 64<<10/5)
	if err := st.Set("k", value, 0, 0); err != nil {
		t.Fatal(err)
	}
	binGet := []byte{protocol.MagicRequest, protocol.OpGet, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'k'}
	for _, c := range []struct {
		name      string
		req       []byte
		replySize int
	}{
		{"binary", binGet, 24 + 4 + len(value)},
		{"ascii", []byte("get k\r\n"), len("VALUE k 0 65535\r\n") + len(value) + len("\r\nEND\r\n")},
		{"ascii-multi", []byte("get k absent k\r\n"), 2*(len("VALUE k 0 65535\r\n")+len(value)) + len("\r\n\r\nEND\r\n")},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					err = protocol.ServeConnIdle(st, conn, protocol.Env{}, 0)
					conn.Close()
				}
				served <- err
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			reply := make([]byte, c.replySize)
			get := func() {
				if _, err := conn.Write(c.req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, reply); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(200, get); allocs != 0 {
				t.Fatalf("a pinned 64 KiB %s GET allocates %v per op, want 0", c.name, allocs)
			}
			if !bytes.HasSuffix(bytes.TrimSuffix(reply, []byte("\r\nEND\r\n")), value) {
				t.Fatalf("the reply does not end in the value")
			}
			conn.Close()
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPinnedSetZeroAllocPerOp gates the large-value SET as a server
// connection serves it: over loopback TCP through protocol.ServeConnIdle,
// a 64 KiB set has its chunk reserved, its value read from the socket
// straight into the chunk, and is committed and let go of — and none of
// that allocates, on either codec.
func TestPinnedSetZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("photo"), 64<<10/5)
	binSet := []byte{protocol.MagicRequest, protocol.OpSet, 0, 1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(binSet[8:], uint32(8+1+len(value)))
	binSet = append(append(append(binSet, 0, 0, 0, 7, 0, 0, 0, 0), 'k'), value...)
	asciiSet := append(append([]byte("set k 7 0 65535\r\n"), value...), "\r\n"...)
	for _, c := range []struct {
		name      string
		req       []byte
		replySize int
	}{
		{"binary", binSet, 24},
		{"ascii", asciiSet, len("STORED\r\n")},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					err = protocol.ServeConnIdle(st, conn, protocol.Env{}, 0)
					conn.Close()
				}
				served <- err
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			reply := make([]byte, c.replySize)
			set := func() {
				if _, err := conn.Write(c.req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, reply); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(200, set); allocs != 0 {
				t.Fatalf("a received 64 KiB %s SET allocates %v per op, want 0", c.name, allocs)
			}
			if v, flags, ok := storedItem(st, "k"); !ok || v != string(value) || flags != 7 {
				t.Fatalf("after the sets, get found %v, %d bytes, flags %d; reply %q", ok, len(v), flags, reply)
			}
			conn.Close()
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSetRunZeroAllocPerOp gates a pipelined burst of small stores as a
// server connection serves it: over loopback TCP through
// protocol.ServeConnIdle, 64 quiet sets of 64 keys (binary setq frames,
// or ASCII noreply sets) and a request that answers arrive together, so
// the session serves the sets as runs — one PutBatch and one observer
// call for up to 32 of them, keys and values read where they lie in
// the reader — and none of that allocates, on either codec.
func TestSetRunZeroAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	const sets = 64
	value := []byte("0123456789abcdef")
	var binReq, asciiReq []byte
	for i := 0; i < sets; i++ {
		key := fmt.Sprintf("key:%08d", i)
		f := []byte{protocol.MagicRequest, protocol.OpSetQ, 0, byte(len(key)), 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(f[8:], uint32(8+len(key)+len(value)))
		binReq = append(append(append(append(binReq, f...), 0, 0, 0, 3, 0, 0, 0, 0), key...), value...)
		asciiReq = fmt.Appendf(asciiReq, "set %s 3 0 %d noreply\r\n%s\r\n", key, len(value), value)
	}
	binReq = append(binReq, protocol.MagicRequest, protocol.OpNoop, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	asciiReq = append(asciiReq, "version\r\n"...)
	for _, c := range []struct {
		name      string
		req       []byte
		replySize int
	}{
		{"binary", binReq, 24},
		{"ascii", asciiReq, len("VERSION " + protocol.Version + "\r\n")},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					err = protocol.ServeConnIdle(st, conn, protocol.Env{Observer: nullObserver{}, Clock: st.Clock()}, 0)
					conn.Close()
				}
				served <- err
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			reply := make([]byte, c.replySize)
			burst := func() {
				if _, err := conn.Write(c.req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, reply); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
				t.Fatalf("a burst of %d %s sets allocates %v, want 0", sets, c.name, allocs)
			}
			for _, key := range []string{"key:00000000", fmt.Sprintf("key:%08d", sets-1)} {
				if v, flags, ok := storedItem(st, key); !ok || v != string(value) || flags != 3 {
					t.Fatalf("after the bursts, get %s found %v, %q flags %d; reply %q", key, ok, v, flags, reply)
				}
			}
			conn.Close()
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBinaryClientGetOneAllocPerOp gates the client side of a binary
// GET: over loopback TCP to a server that allocates nothing per GET,
// BinaryClient.Get allocates once — the response body, which holds the
// Value the caller keeps — and nothing else.
func TestBinaryClientGetOneAllocPerOp(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("v"), 100)
	if err := st.Set("key:00000001", value, 3, 0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = protocol.ServeConnIdle(st, conn, protocol.Env{}, 0)
			conn.Close()
		}
		served <- err
	}()
	c, err := kvclient.DialBinaryOptions(ln.Addr().String(), kvclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got kvclient.Item
	allocs := testing.AllocsPerRun(200, func() {
		if got, err = c.Get("key:00000001"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("BinaryClient.Get allocates %v per op, want at most 1", allocs)
	}
	if !bytes.Equal(got.Value, value) {
		t.Fatalf("get = %q", got.Value)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
