package protocol

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// recordingReplicator captures fan-out calls; values are copied, per
// the Replicator borrow contract.
type recordingReplicator struct {
	sets    []replSet
	deletes []replDel
	touches []replTouchRec
	flushes []replFlushRec
	fail    error // returned from every call when non-nil
}

type replSet struct {
	key     string
	value   string
	flags   uint32
	exptime int64
	mode    ReplMode
}

type replDel struct {
	key  string
	mode ReplMode
}

type replTouchRec struct {
	key     string
	exptime int64
	mode    ReplMode
}

type replFlushRec struct {
	delay int64
	mode  ReplMode
}

func (r *recordingReplicator) ReplicateSet(key string, value []byte, flags uint32, exptime int64, mode ReplMode) error {
	if r.fail != nil {
		return r.fail
	}
	r.sets = append(r.sets, replSet{key, string(value), flags, exptime, mode})
	return nil
}

func (r *recordingReplicator) ReplicateDelete(key string, mode ReplMode) error {
	if r.fail != nil {
		return r.fail
	}
	r.deletes = append(r.deletes, replDel{key, mode})
	return nil
}

func (r *recordingReplicator) ReplicateTouch(key string, exptime int64, mode ReplMode) error {
	if r.fail != nil {
		return r.fail
	}
	r.touches = append(r.touches, replTouchRec{key, exptime, mode})
	return nil
}

func (r *recordingReplicator) ReplicateFlush(delay int64, mode ReplMode) error {
	if r.fail != nil {
		return r.fail
	}
	r.flushes = append(r.flushes, replFlushRec{delay, mode})
	return nil
}

// frameVb is frame with an explicit vbucket field — the ReplMode carrier.
func frameVb(opcode byte, key string, extras, value []byte, vbucket uint16, opaque uint32) []byte {
	f := frame(opcode, key, extras, value, 0, opaque)
	f[6] = byte(vbucket >> 8)
	f[7] = byte(vbucket)
	return f
}

func runBinaryRepl(t *testing.T, repl Replicator, frames ...[]byte) []binResponse {
	t.Helper()
	var in bytes.Buffer
	for _, f := range frames {
		in.Write(f)
	}
	buf := &rwBuffer{in: bytes.NewReader(in.Bytes())}
	if err := ServeConn(newStore(t), buf, Env{Repl: repl}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	return parseResponses(t, buf.out.Bytes())
}

// TestBinaryReplicatorModes: the vbucket field selects the per-op mode,
// ReplLocal frames are never re-replicated, unknown vbucket values fall
// back to the server default.
func TestBinaryReplicatorModes(t *testing.T) {
	rec := &recordingReplicator{}
	rs := runBinaryRepl(t, rec,
		frameVb(OpSet, "k-default", setExtras(1, 0), []byte("v0"), uint16(ReplDefault), 1),
		frameVb(OpSet, "k-local", setExtras(2, 0), []byte("v1"), uint16(ReplLocal), 2),
		frameVb(OpSet, "k-async", setExtras(3, 0), []byte("v2"), uint16(ReplAsync), 3),
		frameVb(OpSet, "k-quorum", setExtras(4, 0), []byte("v3"), uint16(ReplQuorum), 4),
		frameVb(OpSet, "k-weird", setExtras(5, 0), []byte("v4"), 999, 5),
		frameVb(OpDelete, "k-async", nil, nil, uint16(ReplAsync), 6),
		frameVb(OpDelete, "k-local", nil, nil, uint16(ReplLocal), 7),
	)
	for i, r := range rs {
		if r.status != StatusOK {
			t.Fatalf("response %d: status %#04x", i, r.status)
		}
	}
	want := []replSet{
		{"k-default", "v0", 1, 0, ReplDefault},
		{"k-async", "v2", 3, 0, ReplAsync},
		{"k-quorum", "v3", 4, 0, ReplQuorum},
		{"k-weird", "v4", 5, 0, ReplDefault},
	}
	if len(rec.sets) != len(want) {
		t.Fatalf("replicated sets = %+v, want %+v", rec.sets, want)
	}
	for i := range want {
		if rec.sets[i] != want[i] {
			t.Fatalf("set %d = %+v, want %+v", i, rec.sets[i], want[i])
		}
	}
	if len(rec.deletes) != 1 || rec.deletes[0] != (replDel{"k-async", ReplAsync}) {
		t.Fatalf("replicated deletes = %+v", rec.deletes)
	}
}

// TestBinaryQuorumShortfall: a failing Replicator turns an otherwise
// successful store into StatusNoQuorum — including on quiet opcodes,
// where plain success would have been silent.
func TestBinaryQuorumShortfall(t *testing.T) {
	rec := &recordingReplicator{fail: errors.New("2 of 3 acks")}
	rs := runBinaryRepl(t, rec,
		frameVb(OpSet, "a", setExtras(0, 0), []byte("x"), uint16(ReplQuorum), 1),
		frameVb(OpSetQ, "b", setExtras(0, 0), []byte("y"), uint16(ReplQuorum), 2),
		frame(OpNoop, "", nil, nil, 0, 3),
	)
	if len(rs) != 3 {
		t.Fatalf("got %d responses, want 3 (set, quiet-set error, noop)", len(rs))
	}
	if rs[0].status != StatusNoQuorum || rs[0].opaque != 1 {
		t.Fatalf("quorum shortfall response: %+v", rs[0])
	}
	if rs[1].status != StatusNoQuorum || rs[1].opaque != 2 {
		t.Fatalf("quiet quorum shortfall must still respond: %+v", rs[1])
	}
}

// TestASCIIReplicatorHooks: ASCII writes replicate with the server
// default mode; append/prepend and incr stay local-only.
func TestASCIIReplicatorHooks(t *testing.T) {
	rec := &recordingReplicator{}
	store := newStore(t)
	buf := &rwBuffer{in: bytes.NewReader([]byte(
		"set foo 7 0 5\r\nhello\r\n" +
			"append foo 0 0 1\r\n!\r\n" +
			"delete foo\r\n" +
			"set n 0 0 1\r\n1\r\n" +
			"incr n 1\r\n"))}
	if err := ServeConn(store, buf, Env{Repl: rec}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if len(rec.sets) != 2 || rec.sets[0].key != "foo" || rec.sets[0].mode != ReplDefault ||
		rec.sets[0].value != "hello" || rec.sets[1].key != "n" {
		t.Fatalf("ascii replicated sets = %+v", rec.sets)
	}
	if len(rec.deletes) != 1 || rec.deletes[0].key != "foo" {
		t.Fatalf("ascii replicated deletes = %+v", rec.deletes)
	}
}

// TestASCIIReplicationFailureIsServerError: a replication failure on
// the ASCII path surfaces as SERVER_ERROR, and a failed delete still
// reports the failure rather than DELETED.
func TestASCIIReplicationFailureIsServerError(t *testing.T) {
	rec := &recordingReplicator{fail: errors.New("no quorum")}
	store := newStore(t)
	if err := store.Set("gone", []byte("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	buf := &rwBuffer{in: bytes.NewReader([]byte(
		"set foo 0 0 1\r\nx\r\ndelete gone\r\n"))}
	if err := ServeConn(store, buf, Env{Repl: rec}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	out := buf.out.String()
	lines := strings.Split(strings.TrimRight(out, "\r\n"), "\r\n")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "SERVER_ERROR") ||
		!strings.HasPrefix(lines[1], "SERVER_ERROR") {
		t.Fatalf("out = %q, want two SERVER_ERROR lines", out)
	}
}

// TestReplModeNames pins the flag-facing names and the vbucket decode.
func TestReplModeNames(t *testing.T) {
	for _, tc := range []struct {
		s    string
		mode ReplMode
	}{{"default", ReplDefault}, {"local", ReplLocal}, {"async", ReplAsync}, {"quorum", ReplQuorum}} {
		m, ok := ParseReplMode(tc.s)
		if !ok || m != tc.mode {
			t.Fatalf("ParseReplMode(%q) = %v, %v", tc.s, m, ok)
		}
		if tc.mode.String() != tc.s {
			t.Fatalf("mode %d String = %q, want %q", tc.mode, tc.mode.String(), tc.s)
		}
	}
	if _, ok := ParseReplMode("bogus"); ok {
		t.Fatal("ParseReplMode accepted bogus mode")
	}
	if m := ReplModeFromVbucket(uint16(ReplQuorum)); m != ReplQuorum {
		t.Fatalf("vbucket decode = %v", m)
	}
	if m := ReplModeFromVbucket(4); m != ReplDefault {
		t.Fatalf("unknown vbucket should fall back to default, got %v", m)
	}
}
