package kvserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
	"kv3d/internal/testutil"
)

func newMigStore(t *testing.T) *kvstore.Store {
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMigChunkRoundTrip(t *testing.T) {
	entries := []MigEntry{
		{Key: "alpha", Value: []byte("one"), Flags: 7, Exptime: 0},
		{Key: "bravo", Value: nil, Flags: 0, Exptime: 1_900_000_000},
		{Key: "charlie", Value: bytes.Repeat([]byte("x"), 300), Flags: 0xffffffff},
	}
	chunk := AppendChunk(nil, entries, 42)
	got, barrier, err := DecodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if barrier != 42 {
		t.Fatalf("barrier = %d", barrier)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Key != e.Key || !bytes.Equal(g.Value, e.Value) || g.Flags != e.Flags || g.Exptime != e.Exptime {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, e)
		}
	}
	// Strict inverse: re-encoding the decode reproduces the bytes.
	if re := AppendChunk(nil, got, barrier); !bytes.Equal(re, chunk) {
		t.Fatal("re-encoded chunk differs from original")
	}
	// Empty chunk is just a barrier.
	if got, barrier, err = DecodeChunk(AppendChunk(nil, nil, 9)); err != nil || len(got) != 0 || barrier != 9 {
		t.Fatalf("empty chunk: entries=%d barrier=%d err=%v", len(got), barrier, err)
	}
}

func TestMigChunkDecodeRejects(t *testing.T) {
	valid := AppendChunk(nil, []MigEntry{{Key: "k", Value: []byte("v")}}, 1)
	cases := map[string]func([]byte) []byte{
		"truncated header":  func(b []byte) []byte { return b[:10] },
		"no barrier":        func(b []byte) []byte { return b[:len(b)-migHeaderLen] },
		"bad magic":         func(b []byte) []byte { b[0] = 0x99; return b },
		"bad opcode":        func(b []byte) []byte { b[1] = 0xee; return b },
		"nonzero cas":       func(b []byte) []byte { b[20] = 1; return b },
		"trailing bytes":    func(b []byte) []byte { return append(b, 0) },
		"wrong vbucket":     func(b []byte) []byte { b[7] = 0; return b },
		"wrong opaque":      func(b []byte) []byte { b[15] = 5; return b },
		"truncated body":    func(b []byte) []byte { return b[:migHeaderLen+3] },
		"barrier with body": func(b []byte) []byte { b[len(b)-migHeaderLen+4] = 1; return b },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), valid...))
		if _, _, err := DecodeChunk(b); err == nil {
			t.Errorf("%s: decode accepted a corrupt chunk", name)
		}
	}
}

// FuzzMigChunk holds DecodeChunk to: never panic, and when it accepts
// input, re-encoding the result reproduces the input byte-identically
// (the decoder only accepts what the encoder can produce).
func FuzzMigChunk(f *testing.F) {
	f.Add(AppendChunk(nil, nil, 0))
	f.Add(AppendChunk(nil, []MigEntry{{Key: "k", Value: []byte("v"), Flags: 3, Exptime: 60}}, 7))
	f.Add(AppendChunk(nil, []MigEntry{
		{Key: "a", Value: []byte("1")},
		{Key: "bb", Value: bytes.Repeat([]byte("z"), 100), Flags: 9},
	}, 1))
	f.Add([]byte{0x80, 0x1d, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, barrier, err := DecodeChunk(data)
		if err != nil {
			return
		}
		if re := AppendChunk(nil, entries, barrier); !bytes.Equal(re, data) {
			t.Fatalf("decode/re-encode not identity:\n in: %x\nout: %x", data, re)
		}
	})
}

// TestMigrationEndToEnd streams a store's keys into a live server and
// checks values, flags, and absolute TTLs survive the move.
func TestMigrationEndToEnd(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	target, addr := startServer(t)

	src := newMigStore(t)
	ttl := time.Now().Unix() + 3600
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("mig-%03d", i)
		if err := src.Set(k, []byte("val-"+k), uint32(i), ttl); err != nil {
			t.Fatal(err)
		}
	}

	m, err := NewMigrator(MigOptions{Store: src})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Start(StreamOptions{Target: addr, ChunkKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Wait(); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if st.Cursor() != st.Total() || st.Total() != 500 {
		t.Fatalf("cursor %d / total %d, want 500/500", st.Cursor(), st.Total())
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("mig-%03d", i)
		e, exp, ok := target.store.GetWithExpiry(k)
		if !ok {
			t.Fatalf("target missing %q", k)
		}
		if string(e.Value) != "val-"+k || e.Flags != uint32(i) {
			t.Fatalf("target %q = %q flags %d", k, e.Value, e.Flags)
		}
		if exp != ttl {
			t.Fatalf("target %q expiry %d, want %d (TTL must survive migration)", k, exp, ttl)
		}
	}
	if got := m.completed.Load(); got != 1 {
		t.Fatalf("completed = %d", got)
	}
	if m.keysSent.Load() != 500 {
		t.Fatalf("keys_sent = %d", m.keysSent.Load())
	}
}

// TestMigrationAddSemantics: a value the target already holds (written
// after ownership moved) is not clobbered — the quiet Add fails with
// StatusKeyExists, counted as a skip.
func TestMigrationAddSemantics(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	target, addr := startServer(t)
	if err := target.store.Set("contested", []byte("newer"), 1, 0); err != nil {
		t.Fatal(err)
	}

	src := newMigStore(t)
	if err := src.Set("contested", []byte("stale"), 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Set("fresh", []byte("moved"), 3, 0); err != nil {
		t.Fatal(err)
	}

	m, err := NewMigrator(MigOptions{Store: src})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Start(StreamOptions{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	if e, ok := target.store.Get("contested"); !ok || string(e.Value) != "newer" {
		t.Fatalf("migration clobbered the target's newer value: %q", e.Value)
	}
	if e, ok := target.store.Get("fresh"); !ok || string(e.Value) != "moved" {
		t.Fatalf("fresh key not migrated: %q", e.Value)
	}
	if m.keysSkipped.Load() != 1 || m.keysSent.Load() != 1 {
		t.Fatalf("skipped=%d sent=%d, want 1/1", m.keysSkipped.Load(), m.keysSent.Load())
	}
	if m.sendErrors.Load() != 0 {
		t.Fatalf("send_errors = %d", m.sendErrors.Load())
	}
}

// TestMigrationOwnedFilter: only keys the predicate claims move.
func TestMigrationOwnedFilter(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	target, addr := startServer(t)
	src := newMigStore(t)
	for i := 0; i < 100; i++ {
		if err := src.Set(fmt.Sprintf("f-%02d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMigrator(MigOptions{Store: src})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Start(StreamOptions{
		Target: addr,
		Owned:  func(k string) bool { return k < "f-50" },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	if st.Total() != 50 {
		t.Fatalf("total = %d, want 50", st.Total())
	}
	if _, ok := target.store.Get("f-49"); !ok {
		t.Fatal("owned key f-49 not migrated")
	}
	if _, ok := target.store.Get("f-50"); ok {
		t.Fatal("unowned key f-50 migrated")
	}
}

// TestMigrationResume: a stream stopped mid-handoff reports a cursor a
// successor resumes from; between the two, every key arrives.
func TestMigrationResume(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	target, addr := startServer(t)
	src := newMigStore(t)
	const n = 40
	for i := 0; i < n; i++ {
		if err := src.Set(fmt.Sprintf("r-%02d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMigrator(MigOptions{Store: src})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Small chunks plus a rate cap keep the stream in flight long
	// enough to stop it deterministically after the first chunk.
	st, err := m.Start(StreamOptions{Target: addr, ChunkKeys: 10, RateKeysPerSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Cursor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	st.Stop()
	if err := st.Err(); !errors.Is(err, ErrMigrationStopped) {
		t.Fatalf("stopped stream err = %v", err)
	}
	cursor := st.Cursor()
	if cursor == 0 || cursor >= n {
		t.Fatalf("cursor = %d, want mid-stream", cursor)
	}
	if m.interrupted.Load() != 1 {
		t.Fatalf("interrupted = %d", m.interrupted.Load())
	}

	st2, err := m.Start(StreamOptions{Target: addr, ChunkKeys: 10, StartAt: cursor})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Wait(); err != nil {
		t.Fatal(err)
	}
	if m.resumed.Load() != 1 {
		t.Fatalf("resumed = %d", m.resumed.Load())
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("r-%02d", i)
		if _, ok := target.store.Get(k); !ok {
			t.Fatalf("key %q lost across stop/resume (cursor %d)", k, cursor)
		}
	}
}

// TestMigrationCloseJoinsStreams: Close during an in-flight handoff
// interrupts every stream and joins their goroutines (satellite-c
// lifecycle guarantee; CheckGoroutines enforces the join).
func TestMigrationCloseJoinsStreams(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	_, addr := startServer(t)
	src := newMigStore(t)
	for i := 0; i < 200; i++ {
		if err := src.Set(fmt.Sprintf("c-%03d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMigrator(MigOptions{Store: src})
	if err != nil {
		t.Fatal(err)
	}
	var streams []*MigrationStream
	for i := 0; i < 3; i++ {
		st, err := m.Start(StreamOptions{Target: addr, ChunkKeys: 5, RateKeysPerSec: 5})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	// Let them get in flight, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for streams[0].Cursor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i, st := range streams {
		select {
		case <-st.Done():
		default:
			t.Fatalf("stream %d not done after Close", i)
		}
		if err := st.Err(); !errors.Is(err, ErrMigrationStopped) {
			t.Fatalf("stream %d err = %v, want ErrMigrationStopped", i, err)
		}
	}
	if m.activeStream.Load() != 0 {
		t.Fatalf("streams_active = %d after Close", m.activeStream.Load())
	}
	// Starting after Close fails rather than leaking a goroutine.
	if _, err := m.Start(StreamOptions{Target: addr}); err == nil {
		t.Fatal("Start succeeded on a closed migrator")
	}
	// Second Close is a no-op.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationStopBetweenChunks stops an unthrottled stream while its
// first chunk is unacknowledged. The peer is the other end of a pipe: it
// reads the first chunk, holds the ack until Stop has closed the
// stream's done channel, and then reads on. The stream must see the stop
// before it sends the next chunk — its per-chunk check is the only place
// an unthrottled stream looks — and end with ErrMigrationStopped, one
// interruption counted and one key disposed of. A second chunk, were one
// sent, would meet a closed pipe.
func TestMigrationStopBetweenChunks(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	src := newMigStore(t)
	for i := 0; i < 3; i++ {
		if err := src.Set(fmt.Sprintf("s-%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	streamEnd, peer := net.Pipe()
	defer peer.Close()
	m, err := NewMigrator(MigOptions{Store: src, Dial: func(string) (net.Conn, error) { return streamEnd, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Start(StreamOptions{Target: "peer", ChunkKeys: 1})
	if err != nil {
		t.Fatal(err)
	}

	want := AppendChunk(nil, []MigEntry{{Key: "s-0", Value: []byte("v")}}, 1)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(peer, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first chunk %x (%v), want %x", got, err, want)
	}
	stopped := make(chan struct{})
	go func() {
		st.Stop()
		close(stopped)
	}()
	<-st.done
	var ack [migHeaderLen]byte
	ack[0], ack[1] = protocol.MagicResponse, protocol.OpNoop
	binary.BigEndian.PutUint32(ack[12:], 1)
	if _, err := peer.Write(ack[:]); err != nil {
		t.Fatal(err)
	}
	var next [1]byte
	if n, _ := peer.Read(next[:]); n != 0 {
		peer.Close()
		t.Errorf("the stream sent another chunk after Stop")
	}
	<-stopped
	if err := st.Err(); !errors.Is(err, ErrMigrationStopped) {
		t.Fatalf("stopped stream err = %v, want ErrMigrationStopped", err)
	}
	if n := m.interrupted.Load(); n != 1 {
		t.Fatalf("interrupted = %d, want 1", n)
	}
	if c := st.Cursor(); c != 1 {
		t.Fatalf("cursor = %d, want 1", c)
	}
}

// TestMigratorProbes: the live.migrate.* counters surface through the
// server's probe set when a Migrator is attached.
func TestMigratorProbes(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	src := newMigStore(t)
	m, err := NewMigrator(MigOptions{Store: src})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := newMigStore(t)
	srv := NewWithOptions(st, nil, Options{Migrator: m})
	found := false
	for _, p := range srv.Probes() {
		if p.Name == "live.migrate.streams_active" {
			found = true
		}
	}
	if !found {
		t.Fatal("live.migrate.streams_active missing from server probes")
	}
}
