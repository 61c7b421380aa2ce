package protocol

// Regression tests for negative exptime ("already expired" on both wire
// protocols), binary flush extras validation and touch/flush_all
// replication, and the segmentation-independence corpora: a session
// stages responses and writes them when it is about to read, so how the
// transport cuts the request stream may change when bytes leave, never
// which bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"kv3d/internal/kvstore"
)

// newClockStore builds a store whose clock is frozen at now — negative
// exptime regressions only bite at sim-time zero, where the buggy
// "expired = absolute 1" encoding still compared as live.
func newClockStore(t *testing.T, now int64) *kvstore.Store {
	t.Helper()
	return frozenStore(t, atSecond(now))
}

// touchExtras is the 4-byte big-endian exptime extras of OpTouch/OpFlush.
func touchExtras(exptime uint32) []byte {
	e := make([]byte, 4)
	binary.BigEndian.PutUint32(e, exptime)
	return e
}

// TestASCIINegativeExptime: storing or touching with a negative exptime
// must make the item immediately invisible, even at sim-time zero.
// Pre-fix, negative exptimes were encoded as absolute time 1, which an
// injected clock still at 0 considered live.
func TestASCIINegativeExptime(t *testing.T) {
	st := newClockStore(t, 0)
	out := run(t, st,
		"set k 0 -1 1\r\nx\r\n"+
			"get k\r\n"+
			"set j 0 0 1\r\ny\r\n"+
			"touch j -1\r\n"+
			"get j\r\n")
	want := "STORED\r\nEND\r\nSTORED\r\nTOUCHED\r\nEND\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

// TestBinaryNegativeExptime: the binary exptime field is decoded as a
// signed 32-bit value, so 0xffffffff arrives as -1 and must expire the
// item immediately — on stores and on touch.
func TestBinaryNegativeExptime(t *testing.T) {
	st := newClockStore(t, 0)
	rs := runBinary(t, st,
		frame(OpSet, "k", setExtras(0, 0xffffffff), []byte("x"), 0, 1),
		frame(OpGet, "k", nil, nil, 0, 2),
		frame(OpSet, "j", setExtras(0, 0), []byte("y"), 0, 3),
		frame(OpTouch, "j", touchExtras(0xffffffff), nil, 0, 4),
		frame(OpGet, "j", nil, nil, 0, 5),
	)
	if len(rs) != 5 {
		t.Fatalf("got %d responses, want 5", len(rs))
	}
	if rs[0].status != StatusOK || rs[2].status != StatusOK || rs[3].status != StatusOK {
		t.Fatalf("writes failed: %+v", rs)
	}
	if rs[1].status != StatusKeyNotFound {
		t.Fatalf("get after negative-exptime set = %+v, want KeyNotFound", rs[1])
	}
	if rs[4].status != StatusKeyNotFound {
		t.Fatalf("get after negative-exptime touch = %+v, want KeyNotFound", rs[4])
	}
}

// TestBinaryFlushExtras: flush must honor a 4-byte delay, accept no
// extras, and reject every other extras length with StatusInvalidArgs —
// including on the quiet opcode, where silence would hide the error.
// Pre-fix, a 2-byte extras field was silently treated as "flush now",
// turning a client framing bug into whole-cache loss.
func TestBinaryFlushExtras(t *testing.T) {
	clk := atSecond(1000)
	st := frozenStore(t, clk)
	rs := runBinary(t, st,
		frame(OpSet, "k", setExtras(0, 0), []byte("v"), 0, 1),
		frame(OpFlush, "", touchExtras(100), nil, 0, 2), // delayed: fires at 1100, clock is 1000
		frame(OpGet, "k", nil, nil, 0, 3),               // still visible
		frame(OpFlush, "", []byte{0, 1}, nil, 0, 4),     // 2-byte extras: reject
		frame(OpFlushQ, "", []byte{1, 2, 3}, nil, 0, 5), // quiet + bad extras: still responds
		frame(OpGet, "k", nil, nil, 0, 6),               // rejected flushes had no effect
	)
	if len(rs) != 6 {
		t.Fatalf("got %d responses, want 6 (bad quiet flush must respond)", len(rs))
	}
	if rs[1].status != StatusOK {
		t.Fatalf("delayed flush: %+v", rs[1])
	}
	if rs[2].status != StatusOK || string(rs[2].value) != "v" {
		t.Fatalf("get during pending delayed flush = %+v, want hit", rs[2])
	}
	if rs[3].status != StatusInvalidArgs || rs[3].opaque != 4 {
		t.Fatalf("2-byte flush extras = %+v, want StatusInvalidArgs", rs[3])
	}
	if rs[4].status != StatusInvalidArgs || rs[4].opaque != 5 {
		t.Fatalf("quiet flush with bad extras = %+v, want StatusInvalidArgs response", rs[4])
	}
	if rs[5].status != StatusOK {
		t.Fatalf("get after rejected flushes = %+v, want hit", rs[5])
	}
	// The delay must have been parsed as exactly 100: the key survives
	// at 1099 and is gone at 1100. Pre-fix behavior (treating a framing
	// mismatch as "flush now") would already have killed it above.
	clk.Advance(99 * time.Second) // 1099
	rs = runBinary(t, st, frame(OpGet, "k", nil, nil, 0, 7))
	if len(rs) != 1 || rs[0].status != StatusOK {
		t.Fatalf("get at epoch-1 = %+v, want hit", rs)
	}
	clk.Advance(time.Second) // 1100
	rs = runBinary(t, st, frame(OpGet, "k", nil, nil, 0, 8))
	if len(rs) != 1 || rs[0].status != StatusKeyNotFound {
		t.Fatalf("get at flush epoch = %+v, want KeyNotFound", rs)
	}
}

// TestASCIITouchFlushReplicate: ASCII touch and flush_all must hand
// their mutation to the Replicator — pre-fix they silently skipped it,
// so replicas kept stale TTLs and flushed primaries diverged from
// unflushed replicas.
func TestASCIITouchFlushReplicate(t *testing.T) {
	rec := &recordingReplicator{}
	st := newStore(t)
	buf := &rwBuffer{in: bytes.NewReader([]byte(
		"set k 0 0 1\r\nv\r\n" +
			"touch k 300\r\n" +
			"touch missing 5\r\n" + // local NOT_FOUND: nothing to replicate
			"flush_all 60\r\n" +
			"flush_all\r\n"))}
	if err := ServeConn(st, buf, Env{Repl: rec}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if len(rec.touches) != 1 || rec.touches[0] != (replTouchRec{"k", 300, ReplDefault}) {
		t.Fatalf("replicated touches = %+v, want [{k 300 default}]", rec.touches)
	}
	if len(rec.flushes) != 2 ||
		rec.flushes[0] != (replFlushRec{60, ReplDefault}) ||
		rec.flushes[1] != (replFlushRec{0, ReplDefault}) {
		t.Fatalf("replicated flushes = %+v, want delays [60 0]", rec.flushes)
	}
}

// TestASCIITouchFlushReplicationFailure: a failed fan-out surfaces as
// SERVER_ERROR rather than acknowledging a write the replicas missed.
func TestASCIITouchFlushReplicationFailure(t *testing.T) {
	rec := &recordingReplicator{fail: errors.New("no quorum")}
	st := newStore(t)
	if err := st.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	buf := &rwBuffer{in: bytes.NewReader([]byte("touch k 300\r\nflush_all\r\n"))}
	if err := ServeConn(st, buf, Env{Repl: rec}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.out.String(), "\r\n"), "\r\n")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "SERVER_ERROR") ||
		!strings.HasPrefix(lines[1], "SERVER_ERROR") {
		t.Fatalf("out = %q, want two SERVER_ERROR lines", buf.out.String())
	}
}

// TestBinaryTouchFlushReplicate: binary touch and flush replicate with
// the vbucket-selected mode; ReplLocal frames (replica-applied writes)
// are never re-replicated, and a failed fan-out is StatusNoQuorum.
func TestBinaryTouchFlushReplicate(t *testing.T) {
	rec := &recordingReplicator{}
	rs := runBinaryRepl(t, rec,
		frameVb(OpSet, "k", setExtras(0, 0), []byte("v"), uint16(ReplLocal), 1),
		frameVb(OpTouch, "k", touchExtras(120), nil, uint16(ReplQuorum), 2),
		frameVb(OpTouch, "k", touchExtras(60), nil, uint16(ReplLocal), 3),
		frameVb(OpFlush, "", touchExtras(30), nil, uint16(ReplAsync), 4),
		frameVb(OpFlush, "", nil, nil, uint16(ReplLocal), 5),
	)
	for i, r := range rs {
		if r.status != StatusOK {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
	if len(rec.touches) != 1 || rec.touches[0] != (replTouchRec{"k", 120, ReplQuorum}) {
		t.Fatalf("replicated touches = %+v, want only the quorum touch", rec.touches)
	}
	if len(rec.flushes) != 1 || rec.flushes[0] != (replFlushRec{30, ReplAsync}) {
		t.Fatalf("replicated flushes = %+v, want only the async flush", rec.flushes)
	}
}

// TestBinaryTouchFlushQuorumShortfall: replication failure on touch and
// flush reports StatusNoQuorum instead of success.
func TestBinaryTouchFlushQuorumShortfall(t *testing.T) {
	rec := &recordingReplicator{fail: errors.New("1 of 3 acks")}
	st := newStore(t)
	if err := st.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	in.Write(frameVb(OpTouch, "k", touchExtras(120), nil, uint16(ReplQuorum), 1))
	in.Write(frameVb(OpFlush, "", nil, nil, uint16(ReplQuorum), 2))
	buf := &rwBuffer{in: bytes.NewReader(in.Bytes())}
	if err := ServeConn(st, buf, Env{Repl: rec}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	rs := parseResponses(t, buf.out.Bytes())
	if len(rs) != 2 || rs[0].status != StatusNoQuorum || rs[1].status != StatusNoQuorum {
		t.Fatalf("responses = %+v, want two StatusNoQuorum", rs)
	}
}

// --- segmentation independence ----------------------------------------

// segmentedRW delivers the request stream in the given segments, one
// per Read (a transport that hands over less than was asked for is
// legal, and is exactly what a slow or pipelining peer looks like).
type segmentedRW struct {
	segs [][]byte
	out  bytes.Buffer
}

func (s *segmentedRW) Read(p []byte) (int, error) {
	for len(s.segs) > 0 && len(s.segs[0]) == 0 {
		s.segs = s.segs[1:]
	}
	if len(s.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.segs[0])
	s.segs[0] = s.segs[0][n:]
	return n, nil
}

func (s *segmentedRW) Write(p []byte) (int, error) { return s.out.Write(p) }

// deliveries cuts one request stream three ways: a single burst, one
// segment per request, and one segment per byte.
func deliveries(requests [][]byte) map[string][][]byte {
	all := bytes.Join(requests, nil)
	perByte := make([][]byte, len(all))
	for i := range all {
		perByte[i] = all[i : i+1]
	}
	return map[string][][]byte{
		"burst":       {all},
		"per-request": requests,
		"per-byte":    perByte,
	}
}

// checkSegmentationIndependent serves every delivery of requests on a
// fresh fixed-clock store and requires identical response bytes.
func checkSegmentationIndependent(t *testing.T, requests [][]byte, serve func(*kvstore.Store, io.ReadWriter) error) []byte {
	t.Helper()
	var want []byte
	cuts := deliveries(requests)
	for _, name := range []string{"burst", "per-request", "per-byte"} {
		// Copy the segment list: Read consumes it.
		rw := &segmentedRW{segs: append([][]byte(nil), cuts[name]...)}
		if err := serve(newClockStore(t, 1000), rw); err != nil {
			t.Fatalf("serve (%s): %v", name, err)
		}
		got := rw.out.Bytes()
		if name == "burst" {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s delivery diverged from burst delivery: %d vs %d bytes", name, len(got), len(want))
		}
	}
	if len(want) == 0 {
		t.Fatal("corpus produced no output")
	}
	return want
}

// asciiCorpus exercises hits, misses, multigets, CAS, quiet (noreply)
// writes, arithmetic, deletes, touch, flush, and parse errors — every
// response class of the ASCII protocol, one request per element.
var asciiCorpus = []string{
	"set a 7 0 5\r\nhello\r\n",
	"set b 0 0 3 noreply\r\nxyz\r\n",
	"get a\r\n",
	"get a b missing\r\n",
	"gets a b\r\n",
	"get missing\r\n",
	"add a 0 0 1\r\nz\r\n", // NOT_STORED: a exists
	"append a 0 0 1\r\n!\r\n",
	"get a\r\n",
	"incr n 5\r\n", // NOT_FOUND
	"set n 0 0 1\r\n1\r\n",
	"incr n 41\r\n",
	"delete b\r\n",
	"delete b\r\n", // NOT_FOUND
	"get b\r\n",
	"bogus command\r\n", // ERROR
	"touch a 300\r\n",
	"set neg 0 -1 1\r\nx\r\n",
	"get neg\r\n",
	"flush_all\r\n",
	"get a\r\n",
	"verbosity 1\r\n",
	"version\r\n",
}

// asciiCorpusWant is what the corpus answers on a fresh 8-shard store:
// the bytes the per-op session of the parent commit produced, pinned so
// a codec change cannot hide behind the deliveries agreeing with each
// other. Shard s issues CAS ids n·8+s+1; a and b both fall in shard 3,
// so their ids are 4 and 12.
const asciiCorpusWant = "STORED\r\n" +
	"VALUE a 7 5\r\nhello\r\nEND\r\n" +
	"VALUE a 7 5\r\nhello\r\nVALUE b 0 3\r\nxyz\r\nEND\r\n" +
	"VALUE a 7 5 4\r\nhello\r\nVALUE b 0 3 12\r\nxyz\r\nEND\r\n" +
	"END\r\n" +
	"NOT_STORED\r\n" +
	"STORED\r\n" +
	"VALUE a 7 6\r\nhello!\r\nEND\r\n" +
	"NOT_FOUND\r\n" +
	"STORED\r\n" +
	"42\r\n" +
	"DELETED\r\n" +
	"NOT_FOUND\r\n" +
	"END\r\n" +
	"ERROR\r\n" +
	"TOUCHED\r\n" +
	"STORED\r\n" +
	"END\r\n" +
	"OK\r\n" + // flush_all is immediate: a is gone on a clock that never moves
	"END\r\n" +
	"OK\r\n" +
	"VERSION " + Version + "\r\n"

// TestASCIIBatchedByteIdentity: the same request bytes delivered in one
// burst, request by request, and byte by byte produce identical
// response bytes — and they are the pinned ones.
func TestASCIIBatchedByteIdentity(t *testing.T) {
	requests := make([][]byte, len(asciiCorpus))
	for i, r := range asciiCorpus {
		requests[i] = []byte(r)
	}
	got := checkSegmentationIndependent(t, requests, func(st *kvstore.Store, rw io.ReadWriter) error {
		return NewSession(st, rw).Serve()
	})
	if string(got) != asciiCorpusWant {
		t.Fatalf("ASCII corpus output:\n got %q\nwant %q", got, asciiCorpusWant)
	}
}

// binaryCorpus builds a frame stream covering quiet gets (hit and
// miss), getk variants, writes between gets, deletes, arithmetic,
// touch, flush validation errors, unknown opcodes, and a pipeline of
// more than 256 frames.
func binaryCorpus() [][]byte {
	var frames [][]byte
	add := func(f []byte) { frames = append(frames, f) }
	add(frame(OpSet, "a", setExtras(7, 0), []byte("alpha"), 0, 1))
	add(frame(OpSetQ, "b", setExtras(0, 0), []byte("beta"), 0, 2))
	add(frame(OpGet, "a", nil, nil, 0, 3))
	add(frame(OpGetQ, "a", nil, nil, 0, 4))
	add(frame(OpGetQ, "missing", nil, nil, 0, 5)) // quiet miss: silent
	add(frame(OpGetK, "b", nil, nil, 0, 6))
	add(frame(OpGetKQ, "missing", nil, nil, 0, 7)) // quiet miss: silent
	add(frame(OpGetKQ, "a", nil, nil, 0, 8))
	// A write between two gets of the same key: ordering must hold.
	add(frame(OpGetQ, "a", nil, nil, 0, 9))
	add(frame(OpSet, "a", setExtras(1, 0), []byte("alpha2"), 0, 10))
	add(frame(OpGet, "a", nil, nil, 0, 11))
	add(frame(OpDelete, "b", nil, nil, 0, 12))
	add(frame(OpDeleteQ, "b", nil, nil, 0, 13)) // quiet miss: silent
	add(frame(OpGet, "b", nil, nil, 0, 14))
	add(frame(OpIncr, "n", incrExtras(5, 100, 0), nil, 0, 15))
	add(frame(OpTouch, "a", touchExtras(300), nil, 0, 16))
	add(frame(OpSet, "neg", setExtras(0, 0xffffffff), []byte("x"), 0, 17))
	add(frame(OpGet, "neg", nil, nil, 0, 18))
	add(frame(OpFlush, "", []byte{9, 9}, nil, 0, 19)) // bad extras: InvalidArgs
	add(frame(OpGet, "a", nil, nil, 0, 20))
	add(frame(0xEE, "", nil, nil, 0, 21)) // unknown opcode
	add(frame(OpNoop, "", nil, nil, 0, 22))
	for i := uint32(0); i < 300; i++ {
		op := byte(OpGetQ)
		if i%64 == 0 {
			op = OpGet
		}
		key := "a"
		if i%3 == 0 {
			key = "missing"
		}
		add(frame(op, key, nil, nil, 0, 1000+i))
	}
	add(frame(OpFlush, "", nil, nil, 0, 23))
	add(frame(OpGet, "a", nil, nil, 0, 24))
	add(frame(OpVersion, "", nil, nil, 0, 25))
	return frames
}

// TestBinaryBatchedByteIdentity: the same invariant on the binary
// protocol — responses come back in request order with identical bytes
// however the frames are cut, quiet misses staying silent. The burst
// output is additionally checked frame by frame against what each
// request must answer.
func TestBinaryBatchedByteIdentity(t *testing.T) {
	got := checkSegmentationIndependent(t, binaryCorpus(), func(st *kvstore.Store, rw io.ReadWriter) error {
		return NewBinarySession(st, rw).Serve()
	})
	rs := parseResponses(t, got)
	// Opaques of the frames that must answer, in order: everything but
	// the quiet set, the quiet delete miss and the quiet get misses.
	want := []uint32{1, 3, 4, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22}
	for i := uint32(0); i < 300; i++ {
		if i%64 == 0 || i%3 != 0 {
			want = append(want, 1000+i)
		}
	}
	want = append(want, 23, 24, 25)
	if len(rs) != len(want) {
		t.Fatalf("got %d responses, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		if r.opaque != want[i] {
			t.Fatalf("response %d has opaque %d, want %d", i, r.opaque, want[i])
		}
	}
	byOpaque := map[uint32]binResponse{}
	for _, r := range rs {
		byOpaque[r.opaque] = r
	}
	for _, c := range []struct {
		opaque uint32
		status uint16
		key    string
		value  string
	}{
		{3, StatusOK, "", "alpha"},
		{6, StatusOK, "b", "beta"},
		{8, StatusOK, "a", "alpha"},
		{9, StatusOK, "", "alpha"},
		{11, StatusOK, "", "alpha2"},
		{14, StatusKeyNotFound, "", "Not found"},
		{18, StatusKeyNotFound, "", "Not found"},
		{19, StatusInvalidArgs, "", "Invalid arguments"},
		{21, StatusUnknownCommand, "", "Unknown command"},
		{1000, StatusKeyNotFound, "", "Not found"},
		{1001, StatusOK, "", "alpha2"},
		{24, StatusKeyNotFound, "", "Not found"}, // after the flush, on a clock that never moves
		{25, StatusOK, "", Version},
	} {
		r := byOpaque[c.opaque]
		if r.status != c.status || r.key != c.key || string(r.value) != c.value {
			t.Errorf("opaque %d answered %+v, want status %#x key %q value %q", c.opaque, r, c.status, c.key, c.value)
		}
	}
}

// --- flush before read -------------------------------------------------

// checkPartialFrame drives the one case a "skip the flush while input is
// buffered" policy gets wrong: a client pipelines two gets and only the
// head of a set (the ASCII command line, the binary 24-byte header),
// then waits for the get replies before sending the body. The session
// must not block reading the body with replies staged — and since
// net.Pipe hands a reader one Write at a time, both replies arriving in
// the client's first Read also proves they left in a single write.
func checkPartialFrame(t *testing.T, serve func(*kvstore.Store, io.ReadWriter) error, head, body, wantGets, wantSet []byte) {
	t.Helper()
	st := newStore(t)
	if err := st.Set("a", []byte("alpha"), 0, 0); err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- serve(st, far) }()
	// A session that stalls fails the test at this deadline instead of
	// hanging it.
	if err := near.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := near.Write(head); err != nil {
		t.Fatalf("writing two gets and a partial set: %v", err)
	}
	n, err := near.Read(buf)
	if err != nil {
		t.Fatalf("reading the get replies with the set's body outstanding: %v", err)
	}
	if !bytes.Equal(buf[:n], wantGets) {
		t.Fatalf("first read = %q, want both get replies in one write: %q", buf[:n], wantGets)
	}
	if _, err := near.Write(body); err != nil {
		t.Fatalf("writing the set's body: %v", err)
	}
	n, err = near.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], wantSet) {
		t.Fatalf("set reply = %q, %v; want %q", buf[:n], err, wantSet)
	}
	if err := near.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestASCIIPartialFrameDoesNotStall(t *testing.T) {
	const get = "VALUE a 0 5\r\nalpha\r\nEND\r\n"
	checkPartialFrame(t,
		func(st *kvstore.Store, rw io.ReadWriter) error { return NewSession(st, rw).Serve() },
		[]byte("get a\r\nget a\r\nset b 0 0 1\r\n"), []byte("x\r\n"),
		[]byte(get+get), []byte("STORED\r\n"))
}

func TestBinaryPartialFrameDoesNotStall(t *testing.T) {
	get1, get2 := frame(OpGet, "a", nil, nil, 0, 1), frame(OpGet, "a", nil, nil, 0, 2)
	set := frame(OpSet, "b", setExtras(0, 0), []byte("x"), 0, 3)
	head := append(append(get1, get2...), set[:binHeaderLen]...)

	// The expected bytes come from serving the same frames complete.
	st := newStore(t)
	if err := st.Set("a", []byte("alpha"), 0, 0); err != nil {
		t.Fatal(err)
	}
	rw := &rwBuffer{in: bytes.NewReader(append(append([]byte(nil), head...), set[binHeaderLen:]...))}
	if err := NewBinarySession(st, rw).Serve(); err != nil {
		t.Fatal(err)
	}
	want := rw.out.Bytes()
	setReply := len(want) - binHeaderLen // a stored set answers with a bare header

	checkPartialFrame(t,
		func(st *kvstore.Store, rw io.ReadWriter) error { return NewBinarySession(st, rw).Serve() },
		head, set[binHeaderLen:], want[:setReply], want[setReply:])
}
