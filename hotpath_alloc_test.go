package kv3d

// Allocation gates for the //kv3d:hotpath functions (see LINTING.md).
// The hotalloc static check flags allocating idioms by shape; these
// tests measure the real paths with testing.AllocsPerRun so a
// regression that slips past the static pass (or hides behind a
// nolint) still fails CI. The two contracts pinned here:
//
//   - A disabled (nil) obs.Tracer costs zero allocations per event, so
//     model code can instrument unconditionally.
//   - The ASCII and binary GET paths — read, dispatch, doGet, store
//     lookup, response write — and the SET paths, down to the rewrite
//     of a resident item's chunk, allocate nothing per operation in
//     steady state. Per-session setup (bufio buffers, scratch growth on
//     first use) is allowed; per-op cost must be flat.

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *obs.Tracer // nil = disabled, the documented fast path
	track := tr.RegisterTrack("x")
	allocs := testing.AllocsPerRun(100, func() {
		tr.Complete(track, "op", 0, sim.Time(10))
		tr.Instant(track, "mark", 5)
		tr.Counter(track, "depth", 5, 1)
		tr.AsyncBegin("req", "r", 1, 0)
		tr.AsyncEnd("req", "r", 1, 10)
	})
	if allocs != 0 {
		t.Fatalf("disabled Tracer allocates %v per event batch, want 0", allocs)
	}
}

// TestFlightRecorderDisabledZeroAlloc pins the nil-recorder fast path:
// instrumented code records unconditionally, so a disabled flight
// recorder must cost nothing per event.
func TestFlightRecorderDisabledZeroAlloc(t *testing.T) {
	var rec *obs.FlightRecorder // nil = recording off
	track := rec.RegisterTrack("x")
	allocs := testing.AllocsPerRun(100, func() {
		rec.Complete(track, "op", "ok", 0, 10)
		rec.Instant(track, "mark", 5)
		rec.InstantArg(track, "gauge", 5, 42)
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
	rec := obs.NewFlightRecorder("gate", 64)
	track := rec.RegisterTrack("x")
	allocs := testing.AllocsPerRun(100, func() {
		rec.Complete(track, "op", "ok", 0, 10)
		rec.Instant(track, "mark", 5)
		rec.InstantArg(track, "gauge", 5, 42)
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
	rec   *obs.FlightRecorder
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
	rec := obs.NewFlightRecorder("gate", 256)
	sink := &flightGateSink{rec: rec, track: rec.RegisterTrack("ops")}
	var clock int64
	nowNanos := func() sim.Ns { clock += 1000; return sim.Ns(clock) }
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
		env := protocol.Env{Observer: nullObs, NowNanos: nowNanos, Flight: sink, FlightEvery: 1}
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

func (nullObserver) ObserveOp(protocol.OpClass, protocol.Outcome, sim.Ns) {}

func TestKVStoreGetIntoBytesZeroAlloc(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("bench-key", []byte("bench-value-0123456789"), 0, 0); err != nil {
		t.Fatal(err)
	}
	key := []byte("bench-key")
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		out, _, ok := st.GetIntoBytes(dst, key)
		if !ok || len(out) == 0 {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetIntoBytes allocates %v per op, want 0", allocs)
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
	dst, out = st.GetBatchInto(dst[:0], keys, out[:0], &scr)
	allocs := testing.AllocsPerRun(100, func() {
		dst, out = st.GetBatchInto(dst[:0], keys, out[:0], &scr)
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
	if e, ok := st.Get("key:00000001"); !ok || string(e.Value) != "0123456789abcdef" || e.Flags != 5 {
		t.Fatalf("after the sets, get = %q flags %d found %v", e.Value, e.Flags, ok)
	}
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
	if e, ok := st.Get("key:00000001"); !ok || string(e.Value) != "0123456789abcdef" || e.Flags != 5 {
		t.Fatalf("after the sets, get = %q flags %d found %v", e.Value, e.Flags, ok)
	}
}
