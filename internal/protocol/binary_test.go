package protocol

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"kv3d/internal/kvstore"
)

// frame builds one binary request frame.
func frame(opcode byte, key string, extras, value []byte, cas uint64, opaque uint32) []byte {
	buf := make([]byte, binHeaderLen, binHeaderLen+len(extras)+len(key)+len(value))
	buf[0] = MagicRequest
	buf[1] = opcode
	binary.BigEndian.PutUint16(buf[2:], uint16(len(key)))
	buf[4] = byte(len(extras))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(buf[12:], opaque)
	binary.BigEndian.PutUint64(buf[16:], cas)
	buf = append(buf, extras...)
	buf = append(buf, key...)
	buf = append(buf, value...)
	return buf
}

func setExtras(flags uint32, exptime uint32) []byte {
	e := make([]byte, 8)
	binary.BigEndian.PutUint32(e, flags)
	binary.BigEndian.PutUint32(e[4:], exptime)
	return e
}

// binResponse is one parsed response frame.
type binResponse struct {
	opcode byte
	status uint16
	opaque uint32
	cas    uint64
	extras []byte
	key    string
	value  []byte
}

func parseResponses(t *testing.T, raw []byte) []binResponse {
	t.Helper()
	var out []binResponse
	for len(raw) > 0 {
		if len(raw) < binHeaderLen {
			t.Fatalf("truncated response header: %d bytes", len(raw))
		}
		if raw[0] != MagicResponse {
			t.Fatalf("bad response magic %#02x", raw[0])
		}
		keyLen := int(binary.BigEndian.Uint16(raw[2:]))
		extrasLen := int(raw[4])
		bodyLen := int(binary.BigEndian.Uint32(raw[8:]))
		r := binResponse{
			opcode: raw[1],
			status: binary.BigEndian.Uint16(raw[6:]),
			opaque: binary.BigEndian.Uint32(raw[12:]),
			cas:    binary.BigEndian.Uint64(raw[16:]),
		}
		body := raw[binHeaderLen : binHeaderLen+bodyLen]
		r.extras = body[:extrasLen]
		r.key = string(body[extrasLen : extrasLen+keyLen])
		r.value = body[extrasLen+keyLen:]
		out = append(out, r)
		raw = raw[binHeaderLen+bodyLen:]
	}
	return out
}

// runBinary serves the given request frames against store (nil for a
// fresh one) and returns the parsed responses.
func runBinary(t *testing.T, store *kvstore.Store, frames ...[]byte) []binResponse {
	t.Helper()
	if store == nil {
		store = newStore(t)
	}
	var in bytes.Buffer
	for _, f := range frames {
		in.Write(f)
	}
	buf := &rwBuffer{in: bytes.NewReader(in.Bytes())}
	sess := NewBinarySession(store, buf)
	if err := sess.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return parseResponses(t, buf.out.Bytes())
}

func TestBinarySetGet(t *testing.T) {
	st := newStore(t)
	rs := runBinary(t, st,
		frame(OpSet, "hello", setExtras(42, 0), []byte("world"), 0, 7),
		frame(OpGet, "hello", nil, nil, 0, 8),
	)
	if len(rs) != 2 {
		t.Fatalf("got %d responses", len(rs))
	}
	if rs[0].status != StatusOK || rs[0].opaque != 7 || rs[0].cas == 0 {
		t.Fatalf("set response: %+v", rs[0])
	}
	if rs[1].status != StatusOK || string(rs[1].value) != "world" {
		t.Fatalf("get response: %+v", rs[1])
	}
	if binary.BigEndian.Uint32(rs[1].extras) != 42 {
		t.Fatalf("flags = %d", binary.BigEndian.Uint32(rs[1].extras))
	}
	if rs[1].opaque != 8 {
		t.Fatal("opaque must echo")
	}
}

func TestBinaryGetMiss(t *testing.T) {
	rs := runBinary(t, nil, frame(OpGet, "nope", nil, nil, 0, 1))
	if len(rs) != 1 || rs[0].status != StatusKeyNotFound {
		t.Fatalf("responses: %+v", rs)
	}
}

func TestBinaryGetQQuietMiss(t *testing.T) {
	// getq suppresses misses entirely; a trailing noop flushes.
	rs := runBinary(t, nil,
		frame(OpGetQ, "nope", nil, nil, 0, 1),
		frame(OpNoop, "", nil, nil, 0, 2),
	)
	if len(rs) != 1 || rs[0].opcode != OpNoop {
		t.Fatalf("getq miss must be silent, got %+v", rs)
	}
}

func TestBinaryGetK(t *testing.T) {
	st := newStore(t)
	rs := runBinary(t, st,
		frame(OpSet, "k1", setExtras(0, 0), []byte("v"), 0, 0),
		frame(OpGetK, "k1", nil, nil, 0, 0),
	)
	if rs[1].key != "k1" {
		t.Fatalf("getk must echo the key, got %q", rs[1].key)
	}
}

func TestBinaryAddReplace(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h,
		frame(OpReplace, "k", setExtras(0, 0), []byte("x"), 0, 0),
		frame(OpAdd, "k", setExtras(0, 0), []byte("v1"), 0, 0),
		frame(OpAdd, "k", setExtras(0, 0), []byte("v2"), 0, 0),
		frame(OpReplace, "k", setExtras(0, 0), []byte("v3"), 0, 0),
		frame(OpGet, "k", nil, nil, 0, 0),
	)
	if rs[0].status != StatusNotStored {
		t.Fatalf("replace absent = %#x", rs[0].status)
	}
	if rs[1].status != StatusOK {
		t.Fatalf("add = %#x", rs[1].status)
	}
	if rs[2].status != StatusNotStored {
		t.Fatalf("add dup = %#x", rs[2].status)
	}
	if rs[3].status != StatusOK || string(rs[4].value) != "v3" {
		t.Fatalf("replace = %#x value %q", rs[3].status, rs[4].value)
	}
}

func TestBinaryCASViaSet(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h, frame(OpSet, "k", setExtras(0, 0), []byte("v1"), 0, 0))
	cas := rs[0].cas
	rs = runBinary(t, h,
		frame(OpSet, "k", setExtras(0, 0), []byte("v2"), cas, 0),
		frame(OpSet, "k", setExtras(0, 0), []byte("v3"), cas, 0),
	)
	if rs[0].status != StatusOK {
		t.Fatalf("matching cas set = %#x", rs[0].status)
	}
	if rs[1].status != StatusKeyExists {
		t.Fatalf("stale cas set = %#x", rs[1].status)
	}
}

func TestBinaryAppendPrepend(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h,
		frame(OpSet, "k", setExtras(0, 0), []byte("mid"), 0, 0),
		frame(OpAppend, "k", nil, []byte("-end"), 0, 0),
		frame(OpPrepend, "k", nil, []byte("start-"), 0, 0),
		frame(OpGet, "k", nil, nil, 0, 0),
	)
	if string(rs[3].value) != "start-mid-end" {
		t.Fatalf("value = %q", rs[3].value)
	}
}

func TestBinaryDelete(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h,
		frame(OpSet, "k", setExtras(0, 0), []byte("v"), 0, 0),
		frame(OpDelete, "k", nil, nil, 0, 0),
		frame(OpDelete, "k", nil, nil, 0, 0),
	)
	if rs[1].status != StatusOK || rs[2].status != StatusKeyNotFound {
		t.Fatalf("delete statuses %#x %#x", rs[1].status, rs[2].status)
	}
}

func incrExtras(delta, initial uint64, exptime uint32) []byte {
	e := make([]byte, 20)
	binary.BigEndian.PutUint64(e, delta)
	binary.BigEndian.PutUint64(e[8:], initial)
	binary.BigEndian.PutUint32(e[16:], exptime)
	return e
}

func TestBinaryIncrDecrWithInitial(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h,
		frame(OpIncr, "n", incrExtras(5, 100, 0), nil, 0, 0), // absent: seeds 100
		frame(OpIncr, "n", incrExtras(5, 100, 0), nil, 0, 0), // 105
		frame(OpDecr, "n", incrExtras(200, 0, 0), nil, 0, 0), // floors at 0
	)
	if v := binary.BigEndian.Uint64(rs[0].value); v != 100 {
		t.Fatalf("initial = %d", v)
	}
	if v := binary.BigEndian.Uint64(rs[1].value); v != 105 {
		t.Fatalf("incr = %d", v)
	}
	if v := binary.BigEndian.Uint64(rs[2].value); v != 0 {
		t.Fatalf("decr floor = %d", v)
	}
}

func TestBinaryIncrNoCreate(t *testing.T) {
	rs := runBinary(t, nil,
		frame(OpIncr, "absent", incrExtras(1, 0, 0xffffffff), nil, 0, 0))
	if rs[0].status != StatusKeyNotFound {
		t.Fatalf("incr with 0xffffffff exptime must not create, got %#x", rs[0].status)
	}
}

func TestBinaryTouchFlushNoopVersion(t *testing.T) {
	st := newStore(t)
	h := st
	exp := make([]byte, 4)
	binary.BigEndian.PutUint32(exp, 100)
	rs := runBinary(t, h,
		frame(OpSet, "k", setExtras(0, 0), []byte("v"), 0, 0),
		frame(OpTouch, "k", exp, nil, 0, 0),
		frame(OpTouch, "absent", exp, nil, 0, 0),
		frame(OpNoop, "", nil, nil, 0, 0),
		frame(OpVersion, "", nil, nil, 0, 0),
		frame(OpFlush, "", nil, nil, 0, 0),
	)
	if rs[1].status != StatusOK || rs[2].status != StatusKeyNotFound {
		t.Fatalf("touch statuses %#x %#x", rs[1].status, rs[2].status)
	}
	if rs[3].opcode != OpNoop || rs[3].status != StatusOK {
		t.Fatal("noop")
	}
	if string(rs[4].value) != Version {
		t.Fatalf("version = %q", rs[4].value)
	}
	if rs[5].status != StatusOK {
		t.Fatal("flush")
	}
}

// TestBinaryFlushIsImmediateAndExact is TestFlushAllIsImmediateAndExact
// over a binary session.
func TestBinaryFlushIsImmediateAndExact(t *testing.T) {
	clk := atSecond(1000)
	st := frozenStore(t, clk)
	rs := runBinary(t, st,
		frame(OpSet, "a", setExtras(0, 0), []byte("1"), 0, 0),
		frame(OpFlush, "", touchExtras(50), nil, 0, 0),
		frame(OpFlush, "", nil, nil, 0, 0),
		frame(OpGet, "a", nil, nil, 0, 0),
		frame(OpSet, "b", setExtras(0, 0), []byte("2"), 0, 0),
		frame(OpGet, "b", nil, nil, 0, 0),
	)
	want := []uint16{StatusOK, StatusOK, StatusOK, StatusKeyNotFound, StatusOK, StatusOK}
	for i, r := range rs {
		if r.status != want[i] {
			t.Fatalf("in the second of the flush, response %d has status %#x, want %#x", i, r.status, want[i])
		}
	}
	clk.Advance(time.Second) // 1001
	if rs := runBinary(t, st, frame(OpGet, "b", nil, nil, 0, 0)); rs[0].status != StatusOK || string(rs[0].value) != "2" {
		t.Fatalf("a second after the flush, get b: status %#x value %q", rs[0].status, rs[0].value)
	}
	clk.Advance(49 * time.Second) // 1050
	if rs := runBinary(t, st, frame(OpGet, "b", nil, nil, 0, 0)); rs[0].status != StatusKeyNotFound {
		t.Fatalf("at the delayed flush's time, get b: status %#x", rs[0].status)
	}
}

func TestBinaryQuietSetPipelined(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h,
		frame(OpSetQ, "a", setExtras(0, 0), []byte("1"), 0, 0),
		frame(OpSetQ, "b", setExtras(0, 0), []byte("2"), 0, 0),
		frame(OpGet, "a", nil, nil, 0, 0),
	)
	// Only the get answers.
	if len(rs) != 1 || string(rs[0].value) != "1" {
		t.Fatalf("pipelined setq: %+v", rs)
	}
}

func TestBinaryStat(t *testing.T) {
	st := newClockStore(t, 1000)
	h := st
	rs := runBinary(t, h,
		frame(OpSet, "k", setExtras(0, 0), []byte("v"), 0, 0),
		frame(OpStat, "", nil, nil, 0, 0),
	)
	// Last stat frame is the empty terminator.
	last := rs[len(rs)-1]
	if last.key != "" || len(last.value) != 0 {
		t.Fatal("stat must terminate with an empty frame")
	}
	found := false
	for _, r := range rs[1:] {
		if r.key == "cmd_set" && string(r.value) == "1" {
			found = true
		}
	}
	if !found {
		t.Fatal("stat must include cmd_set")
	}
	// The rows are the ASCII stats rows: same names, order and values.
	var rows strings.Builder
	for _, r := range rs[1 : len(rs)-1] {
		rows.WriteString("STAT " + r.key + " " + string(r.value) + "\r\n")
	}
	if got, want := rows.String()+"END\r\n", run(t, st, "stats\r\n"); got != want {
		t.Fatalf("binary stat rows %q differ from ASCII stats %q", got, want)
	}
}

func TestBinaryUnknownOpcode(t *testing.T) {
	rs := runBinary(t, nil, frame(0x7f, "", nil, nil, 0, 0))
	if rs[0].status != StatusUnknownCommand {
		t.Fatalf("status = %#x", rs[0].status)
	}
}

func TestBinaryQuit(t *testing.T) {
	st := newStore(t)
	h := st
	rs := runBinary(t, h,
		frame(OpQuit, "", nil, nil, 0, 0),
		frame(OpGet, "after", nil, nil, 0, 0), // must not execute
	)
	if len(rs) != 1 || rs[0].opcode != OpQuit {
		t.Fatalf("quit: %+v", rs)
	}
}

func TestBinaryBadMagicErrors(t *testing.T) {
	st := newStore(t)
	bad := frame(OpGet, "k", nil, nil, 0, 0)
	bad[0] = 0x42
	buf := &rwBuffer{in: bytes.NewReader(bad)}
	if err := NewBinarySession(st, buf).Serve(); err == nil {
		t.Fatal("bad magic must error the session")
	}
}

func TestBinaryInconsistentLengthsError(t *testing.T) {
	st := newStore(t)
	bad := frame(OpGet, "k", nil, nil, 0, 0)
	// Claim a key longer than the body.
	binary.BigEndian.PutUint16(bad[2:], 100)
	buf := &rwBuffer{in: bytes.NewReader(bad)}
	if err := NewBinarySession(st, buf).Serve(); err == nil {
		t.Fatal("inconsistent lengths must error the session")
	}
}

func TestBinaryInvalidExtras(t *testing.T) {
	rs := runBinary(t, nil,
		frame(OpSet, "k", []byte{1, 2}, []byte("v"), 0, 0))
	if rs[0].status != StatusInvalidArgs {
		t.Fatalf("short set extras = %#x", rs[0].status)
	}
}

// TestBinaryStoreRepliesDoNotReadBack: a non-quiet set, add, replace
// and incr answer with the CAS id the store assigned under the shard
// lock. They used to learn it by reading the key back, which counted a
// get hit, copied the value and could report a later writer's CAS.
func TestBinaryStoreRepliesDoNotReadBack(t *testing.T) {
	st := newStore(t)
	rs := runBinary(t, st,
		frame(OpSet, "k", setExtras(0, 0), []byte("1"), 0, 1),
		frame(OpAdd, "fresh", setExtras(0, 0), []byte("v"), 0, 2),
		frame(OpReplace, "k", setExtras(0, 0), []byte("7"), 0, 3),
		frame(OpIncr, "k", incrExtras(5, 0, 0), nil, 0, 4),
		frame(OpIncr, "made", incrExtras(1, 40, 0), nil, 0, 5), // absent: created from initial
	)
	if len(rs) != 5 {
		t.Fatalf("got %d responses, want 5", len(rs))
	}
	if stats := st.Stats(); stats.GetHits != 0 || stats.GetMisses != 0 {
		t.Fatalf("stores and arithmetic counted as gets: get_hits=%d get_misses=%d", stats.GetHits, stats.GetMisses)
	}
	// set and replace of "k" were each superseded; the last writer of
	// every key must have reported the CAS a gets now sees.
	for key, r := range map[string]binResponse{"fresh": rs[1], "k": rs[3], "made": rs[4]} {
		if r.status != StatusOK || r.cas == 0 {
			t.Fatalf("%s: response %+v, want StatusOK with a CAS", key, r)
		}
		if e, ok := st.Get(key); !ok || e.CAS != r.cas {
			t.Errorf("%s: response CAS %d, gets sees %d (found=%v)", key, r.cas, e.CAS, ok)
		}
	}
	if rs[0].cas == 0 || rs[2].cas <= rs[0].cas || rs[3].cas <= rs[2].cas {
		t.Errorf("CAS ids of successive writes to one key not increasing: %d, %d, %d", rs[0].cas, rs[2].cas, rs[3].cas)
	}
}
