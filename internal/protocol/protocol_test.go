package protocol

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"kv3d/internal/kvstore"
)

// rwBuffer joins a request buffer and a response buffer into one
// io.ReadWriter for driving a Session without sockets.
type rwBuffer struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (b *rwBuffer) Read(p []byte) (int, error)  { return b.in.Read(p) }
func (b *rwBuffer) Write(p []byte) (int, error) { return b.out.Write(p) }

func run(t *testing.T, store *kvstore.Store, input string) string {
	t.Helper()
	if store == nil {
		store = newStore(t)
	}
	buf := &rwBuffer{in: bytes.NewReader([]byte(input))}
	sess := NewSession(store, buf)
	if err := sess.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return buf.out.String()
}

func newStore(t *testing.T) *kvstore.Store {
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSetAndGet(t *testing.T) {
	out := run(t, nil, "set foo 42 0 5\r\nhello\r\nget foo\r\n")
	want := "STORED\r\nVALUE foo 42 5\r\nhello\r\nEND\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestGetMiss(t *testing.T) {
	out := run(t, nil, "get missing\r\n")
	if out != "END\r\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestGetMultiKey(t *testing.T) {
	out := run(t, nil, "set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a b c\r\n")
	if !strings.Contains(out, "VALUE a 0 1\r\nx\r\n") || !strings.Contains(out, "VALUE b 0 1\r\ny\r\n") {
		t.Fatalf("out = %q", out)
	}
	if strings.Contains(out, "VALUE c") {
		t.Fatalf("missing key returned: %q", out)
	}
}

func TestGetsReturnsCAS(t *testing.T) {
	out := run(t, nil, "set k 0 0 1\r\nv\r\ngets k\r\n")
	if !strings.Contains(out, "VALUE k 0 1 ") {
		t.Fatalf("gets should include cas: %q", out)
	}
}

func TestCasFlow(t *testing.T) {
	st := newStore(t)
	out := run(t, st, "set k 0 0 2\r\nv1\r\ngets k\r\n")
	// Parse the CAS id out of the response.
	fields := strings.Fields(strings.Split(out, "\r\n")[1])
	cas := fields[4]
	out = run(t, st, "cas k 0 0 2 "+cas+"\r\nv2\r\n")
	if out != "STORED\r\n" {
		t.Fatalf("matching cas: %q", out)
	}
	out = run(t, st, "cas k 0 0 2 "+cas+"\r\nv3\r\n")
	if out != "EXISTS\r\n" {
		t.Fatalf("stale cas: %q", out)
	}
	out = run(t, st, "cas absent 0 0 1 1\r\nx\r\n")
	if out != "NOT_FOUND\r\n" {
		t.Fatalf("cas on absent: %q", out)
	}
}

func TestAddReplaceAppendPrepend(t *testing.T) {
	st := newStore(t)
	if out := run(t, st, "replace k 0 0 1\r\nx\r\n"); out != "NOT_STORED\r\n" {
		t.Fatalf("replace absent: %q", out)
	}
	if out := run(t, st, "add k 0 0 3\r\nmid\r\n"); out != "STORED\r\n" {
		t.Fatalf("add: %q", out)
	}
	if out := run(t, st, "add k 0 0 1\r\nx\r\n"); out != "NOT_STORED\r\n" {
		t.Fatalf("add dup: %q", out)
	}
	run(t, st, "append k 0 0 4\r\n-end\r\n")
	run(t, st, "prepend k 0 0 6\r\nstart-\r\n")
	out := run(t, st, "get k\r\n")
	if !strings.Contains(out, "start-mid-end") {
		t.Fatalf("append/prepend result: %q", out)
	}
}

func TestDelete(t *testing.T) {
	st := newStore(t)
	run(t, st, "set k 0 0 1\r\nv\r\n")
	if out := run(t, st, "delete k\r\n"); out != "DELETED\r\n" {
		t.Fatalf("delete: %q", out)
	}
	if out := run(t, st, "delete k\r\n"); out != "NOT_FOUND\r\n" {
		t.Fatalf("delete again: %q", out)
	}
}

func TestIncrDecr(t *testing.T) {
	st := newStore(t)
	run(t, st, "set n 0 0 2\r\n10\r\n")
	if out := run(t, st, "incr n 5\r\n"); out != "15\r\n" {
		t.Fatalf("incr: %q", out)
	}
	if out := run(t, st, "decr n 100\r\n"); out != "0\r\n" {
		t.Fatalf("decr floors: %q", out)
	}
	if out := run(t, st, "incr missing 1\r\n"); out != "NOT_FOUND\r\n" {
		t.Fatalf("incr missing: %q", out)
	}
	run(t, st, "set s 0 0 3\r\nabc\r\n")
	if out := run(t, st, "incr s 1\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("incr non-numeric: %q", out)
	}
	if out := run(t, st, "incr n notanumber\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("bad delta: %q", out)
	}
}

func TestTouch(t *testing.T) {
	st := newStore(t)
	run(t, st, "set k 0 0 1\r\nv\r\n")
	if out := run(t, st, "touch k 100\r\n"); out != "TOUCHED\r\n" {
		t.Fatalf("touch: %q", out)
	}
	if out := run(t, st, "touch missing 100\r\n"); out != "NOT_FOUND\r\n" {
		t.Fatalf("touch missing: %q", out)
	}
}

func TestStats(t *testing.T) {
	st := newStore(t)
	run(t, st, "set k 0 0 1\r\nv\r\nget k\r\nget miss\r\n")
	out := run(t, st, "stats\r\n")
	if !strings.Contains(out, "STAT get_hits 1\r\n") {
		t.Fatalf("stats missing hits: %q", out)
	}
	if !strings.Contains(out, "STAT get_misses 1\r\n") {
		t.Fatalf("stats missing misses: %q", out)
	}
	if !strings.HasSuffix(out, "END\r\n") {
		t.Fatalf("stats must end with END: %q", out)
	}
	// Names and order are wire contract (tools and the benchmark read them).
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "END\r\n"), "\r\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "STAT" {
			names = append(names, f[1])
		}
	}
	want := "version uptime curr_items total_items bytes limit_maxbytes get_hits get_misses cmd_set " +
		"delete_hits delete_misses cas_hits cas_misses cas_badval incr_hits incr_misses decr_hits decr_misses " +
		"touch_hits touch_misses evictions expired_unfetched threads"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("stats names %q, want %q", got, want)
	}
}

func TestFlushAll(t *testing.T) {
	st := newStore(t)
	if out := run(t, st, "flush_all\r\n"); out != "OK\r\n" {
		t.Fatalf("flush_all: %q", out)
	}
	if out := run(t, st, "flush_all 100\r\n"); out != "OK\r\n" {
		t.Fatalf("flush_all delayed: %q", out)
	}
	if out := run(t, st, "flush_all abc\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("flush_all bad delay: %q", out)
	}
}

// frozenStore is a store whose clock moves only when the test moves it.
func frozenStore(t *testing.T, now *int64) *kvstore.Store {
	t.Helper()
	cfg := kvstore.DefaultConfig(16 << 20)
	cfg.Clock = func() int64 { return *now }
	st, err := kvstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFlushAllIsImmediateAndExact is the flush_all contract
// (ROBUSTNESS.md) over an ASCII session, with the clock held still: what
// was stored before the command is gone in the same second, what is
// stored after it survives the next tick, and a pending delayed flush
// neither absorbs an immediate one nor is cancelled by it.
func TestFlushAllIsImmediateAndExact(t *testing.T) {
	now := int64(1000)
	st := frozenStore(t, &now)
	out := run(t, st, "set a 0 0 1\r\n1\r\nflush_all 50\r\nflush_all\r\nget a\r\nset b 0 0 1\r\n2\r\nget b\r\n")
	if want := "STORED\r\nOK\r\nOK\r\nEND\r\nSTORED\r\nVALUE b 0 1\r\n2\r\nEND\r\n"; out != want {
		t.Fatalf("in the second of the flush:\n got %q\nwant %q", out, want)
	}
	now = 1001
	if out := run(t, st, "get b\r\n"); out != "VALUE b 0 1\r\n2\r\nEND\r\n" {
		t.Fatalf("a second after the flush, get b: %q", out)
	}
	now = 1050
	if out := run(t, st, "get b\r\n"); out != "END\r\n" {
		t.Fatalf("at the delayed flush's time, get b: %q", out)
	}
}

func TestVersionVerbosityQuit(t *testing.T) {
	if out := run(t, nil, "version\r\n"); !strings.HasPrefix(out, "VERSION ") {
		t.Fatalf("version: %q", out)
	}
	if out := run(t, nil, "verbosity 1\r\n"); out != "OK\r\n" {
		t.Fatalf("verbosity: %q", out)
	}
	// Commands after quit must not execute.
	out := run(t, nil, "quit\r\nversion\r\n")
	if out != "" {
		t.Fatalf("post-quit output: %q", out)
	}
}

func TestNoreply(t *testing.T) {
	st := newStore(t)
	out := run(t, st, "set k 0 0 1 noreply\r\nv\r\ndelete k noreply\r\nset n 0 0 1 noreply\r\n5\r\nincr n 1 noreply\r\ntouch n 10 noreply\r\nflush_all noreply\r\nget k\r\n")
	if out != "END\r\n" {
		t.Fatalf("noreply commands should be silent: %q", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	if out := run(t, nil, "bogus\r\n"); out != "ERROR\r\n" {
		t.Fatalf("unknown: %q", out)
	}
	if out := run(t, nil, "\r\n"); out != "ERROR\r\n" {
		t.Fatalf("empty line: %q", out)
	}
	if out := run(t, nil, "get\r\n"); out != "ERROR\r\n" {
		t.Fatalf("get with no keys: %q", out)
	}
}

func TestMalformedStorage(t *testing.T) {
	for _, cmd := range []string{
		"set k 0 0\r\n",            // missing bytes
		"set k x 0 5\r\nhello\r\n", // bad flags
		"set k 0 x 5\r\nhello\r\n", // bad exptime
		"set k 0 0 x\r\n",          // bad bytes
	} {
		out := run(t, nil, cmd)
		if !strings.HasPrefix(out, "CLIENT_ERROR") {
			t.Errorf("cmd %q -> %q, want CLIENT_ERROR", cmd, out)
		}
	}
}

func TestBadDataChunkTerminator(t *testing.T) {
	// Data not followed by \r\n.
	out := run(t, nil, "set k 0 0 5\r\nhelloXXset j 0 0 1\r\n")
	if !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("bad terminator: %q", out)
	}
}

func TestBinaryValueRoundTrip(t *testing.T) {
	st := newStore(t)
	payload := []byte{0, 1, 2, '\r', '\n', 0xff, 'x'}
	input := "set bin 0 0 7\r\n" + string(payload) + "\r\nget bin\r\n"
	out := run(t, st, input)
	if !bytes.Contains([]byte(out), payload) {
		t.Fatalf("binary value corrupted: %q", out)
	}
}

func TestTooLargeValueReportsServerError(t *testing.T) {
	st := newStore(t)
	big := strings.Repeat("v", kvstore.DefaultMaxItemSize+10)
	out := run(t, st, "set k 0 0 "+strconv.Itoa(len(big))+"\r\n"+big+"\r\n")
	if !strings.HasPrefix(out, "SERVER_ERROR object too large") {
		t.Fatalf("oversize: %q", out)
	}
}

func TestBadKeyReportsClientError(t *testing.T) {
	st := newStore(t)
	long := strings.Repeat("k", 300)
	out := run(t, st, "set "+long+" 0 0 1\r\nv\r\n")
	if !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("long key: %q", out)
	}
}

func TestOverlongCommandLineRejected(t *testing.T) {
	buf := &rwBuffer{in: bytes.NewReader([]byte("get " + strings.Repeat("k", 100000) + "\r\n"))}
	sess := NewSession(newStore(t), buf)
	if err := sess.Serve(); err == nil {
		t.Fatal("overlong line should error the session")
	}
}

func TestStatsSlabs(t *testing.T) {
	st := newStore(t)
	run(t, st, "set small 0 0 10\r\n0123456789\r\nset big 0 0 5000\r\n"+strings.Repeat("x", 5000)+"\r\n")
	out := run(t, st, "stats slabs\r\n")
	if !strings.Contains(out, ":chunk_size") || !strings.Contains(out, ":used_chunks") {
		t.Fatalf("stats slabs output: %q", out)
	}
	if !strings.Contains(out, "STAT active_slabs") {
		t.Fatalf("missing active_slabs: %q", out)
	}
	if !strings.HasSuffix(out, "END\r\n") {
		t.Fatal("stats slabs must end with END")
	}
}

func TestStatsSettings(t *testing.T) {
	out := run(t, nil, "stats settings\r\n")
	for _, want := range []string{"STAT maxbytes", "STAT eviction_policy lru", "STAT locking striped", "STAT num_shards"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats settings missing %q: %q", want, out)
		}
	}
}

func TestStatsReset(t *testing.T) {
	if out := run(t, nil, "stats reset\r\n"); out != "RESET\r\n" {
		t.Fatalf("stats reset: %q", out)
	}
}

func TestStatsUnknownSubcommand(t *testing.T) {
	if out := run(t, nil, "stats bogus\r\n"); !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Fatalf("stats bogus: %q", out)
	}
}

// brokenPipeRW reads a canned request and fails every write, standing
// in for a client that vanished before the response went out.
type brokenPipeRW struct {
	in *bytes.Reader
}

func (b *brokenPipeRW) Read(p []byte) (int, error) { return b.in.Read(p) }
func (b *brokenPipeRW) Write(p []byte) (int, error) {
	return 0, errors.New("broken pipe")
}

// TestServeSurfacesFlushError pins a fix found by the kv3d-lint errdrop
// check: Serve used to drop the final Flush result, so a response that
// never reached the client looked like a clean session.
func TestServeSurfacesFlushError(t *testing.T) {
	sess := NewSession(newStore(t), &brokenPipeRW{in: bytes.NewReader([]byte("version\r\n"))})
	err := sess.Serve()
	if err == nil {
		t.Fatal("Serve returned nil although the response flush failed")
	}
	if !strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("Serve error %q does not surface the write failure", err)
	}
}
