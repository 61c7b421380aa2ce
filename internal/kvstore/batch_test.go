package kvstore

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func newBatchStore(t *testing.T, shards int) *Store {
	t.Helper()
	cfg := DefaultConfig(32 << 20)
	cfg.Shards = shards
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// batchInto runs one GetBatchInto over string keys and returns each
// key's value (nil on a miss) with the results.
func batchInto(st *Store, keys ...string) ([][]byte, []BatchResult) {
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i] = []byte(k)
	}
	var scr BatchScratch
	dst, out := st.GetBatchInto(nil, bkeys, nil, &scr, math.MaxInt)
	values := make([][]byte, len(out))
	for i, r := range out {
		if r.Found {
			values[i] = dst[r.Start:r.End]
		}
	}
	return values, out
}

// TestGetBatchMatchesPerKeyGet checks a batch against per-key Gets:
// every hit, miss, value and CAS id matches, and every flag word is
// the one its set stored.
func TestGetBatchMatchesPerKeyGet(t *testing.T) {
	st := newBatchStore(t, 8)
	var keys []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key:%03d", i)
		keys = append(keys, k)
		if i%3 != 0 { // leave every third key a miss
			if err := st.Set(k, []byte(fmt.Sprintf("val:%03d", i)), uint32(i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	values, out := batchInto(st, keys...)
	if len(out) != len(keys) {
		t.Fatalf("GetBatchInto returned %d results for %d keys", len(out), len(keys))
	}
	for i, k := range keys {
		e, ok := st.Get(k)
		if out[i].Found != ok {
			t.Fatalf("key %q: batch found=%v, Get found=%v", k, out[i].Found, ok)
		}
		if !ok {
			continue
		}
		if !bytes.Equal(values[i], e.Value) || out[i].Flags != uint32(i) || out[i].CAS != e.CAS {
			t.Fatalf("key %q: batch (%q,%d,%d) != Get (%q,%d,%d)",
				k, values[i], out[i].Flags, out[i].CAS, e.Value, i, e.CAS)
		}
	}
}

func TestGetBatchPreservesOrderAndDuplicates(t *testing.T) {
	st := newBatchStore(t, 4)
	if err := st.Set("a", []byte("va"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("b", []byte("vb"), 0, 0); err != nil {
		t.Fatal(err)
	}
	values, out := batchInto(st, "b", "missing", "a", "b", "a")
	want := []string{"vb", "", "va", "vb", "va"}
	for i, w := range want {
		if w == "" {
			if out[i].Found {
				t.Fatalf("entry %d: expected miss, got %q", i, values[i])
			}
			continue
		}
		if !out[i].Found || string(values[i]) != w {
			t.Fatalf("entry %d = (%q, found=%v), want %q", i, values[i], out[i].Found, w)
		}
	}
}

func TestGetBatchEmpty(t *testing.T) {
	st := newBatchStore(t, 4)
	var scr BatchScratch
	dst, out := st.GetBatchInto(nil, nil, nil, &scr, math.MaxInt)
	if len(dst) != 0 || len(out) != 0 {
		t.Fatalf("GetBatchInto(empty) = %d bytes, %d results", len(dst), len(out))
	}
}

// TestGetBatchIntoMatchesGetBatch checks GetBatchInto against the
// one-key path, GetInto: values of different lengths append after a
// caller's prefix in one shared buffer, the prefix survives, every span
// and CAS id matches, and every flag word is the one its set stored.
func TestGetBatchIntoMatchesGetBatch(t *testing.T) {
	st := newBatchStore(t, 8)
	var keys []string
	var bkeys [][]byte
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key:%03d", i)
		keys, bkeys = append(keys, k), append(bkeys, []byte(k))
		if i%4 != 1 {
			if err := st.Set(k, bytes.Repeat([]byte{byte('a' + i%26)}, 8+i), uint32(i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	prefix := []byte("VALUE prefix\r\n")
	var scr BatchScratch
	dst, out := st.GetBatchInto(append([]byte(nil), prefix...), bkeys, nil, &scr, math.MaxInt)
	if len(out) != len(bkeys) {
		t.Fatalf("GetBatchInto returned %d results for %d keys", len(out), len(bkeys))
	}
	if !bytes.HasPrefix(dst, prefix) {
		t.Fatalf("GetBatchInto overwrote the caller's prefix: %q", dst[:len(prefix)])
	}
	for i, k := range keys {
		want, e, ok := st.GetInto(nil, k)
		if out[i].Found != ok {
			t.Fatalf("key %q: batch found=%v, GetInto found=%v", k, out[i].Found, ok)
		}
		if !ok {
			continue
		}
		if out[i].Flags != uint32(i) || out[i].CAS != e.CAS {
			t.Fatalf("key %q: batch (flags %d, cas %d) != GetInto (flags %d, cas %d)",
				k, out[i].Flags, out[i].CAS, i, e.CAS)
		}
		if out[i].Start < len(prefix) {
			t.Fatalf("key %q: span starts at %d, inside the %d-byte prefix", k, out[i].Start, len(prefix))
		}
		if got := dst[out[i].Start:out[i].End]; !bytes.Equal(got, want) {
			t.Fatalf("key %q: value %q, want %q", k, got, want)
		}
	}
}

// TestGetBatchLockCount pins the tentpole contract: one batch acquires
// each involved shard's lock at most once, so the acquisition count is
// bounded by Shards no matter how many keys the batch carries.
func TestGetBatchLockCount(t *testing.T) {
	st := newBatchStore(t, 8)
	shards := st.Config().Shards
	var keys []string
	var bkeys [][]byte
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key:%03d", i)
		keys = append(keys, k)
		bkeys = append(bkeys, []byte(k))
		if err := st.Set(k, []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	var scr BatchScratch
	before := st.ReadLockCount()
	st.GetBatchInto(nil, bkeys, nil, &scr, math.MaxInt)
	if locks := st.ReadLockCount() - before; locks > uint64(shards) {
		t.Fatalf("GetBatchInto(64 keys) took %d shard locks, want <= %d", locks, shards)
	}

	// The per-key path really does cost one lock per key — the gap the
	// batch closes.
	before = st.ReadLockCount()
	for _, k := range keys {
		st.Get(k)
	}
	if locks := st.ReadLockCount() - before; locks != uint64(len(keys)) {
		t.Fatalf("per-key Gets took %d locks, want %d", locks, len(keys))
	}
}

// TestGetBatchConcurrentWriters runs batched readers against writers
// under -race: every returned value must be self-consistent (a value
// that was written for that exact key — never bytes from another key's
// chunk) and result order must track request order.
func TestGetBatchConcurrentWriters(t *testing.T) {
	st := newBatchStore(t, 8)
	const nKeys = 32
	keys := make([]string, nKeys)
	bkeys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%03d", i)
		bkeys[i] = []byte(keys[i])
		if err := st.Set(keys[i], []byte(keys[i]+":0"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := 1; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < nKeys; i += 4 {
					val := fmt.Sprintf("%s:%d", keys[i], gen)
					if err := st.Set(keys[i], []byte(val), 0, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	check := func(i int, val []byte, found bool) {
		if !found {
			t.Errorf("key %q vanished", keys[i])
			return
		}
		if !strings.HasPrefix(string(val), keys[i]+":") {
			t.Errorf("key %q returned foreign value %q", keys[i], val)
		}
	}
	var scr BatchScratch
	var dst []byte
	var out []BatchResult
	for r := 0; r < 800; r++ {
		dst, out = st.GetBatchInto(dst[:0], bkeys, out[:0], &scr, math.MaxInt)
		for i, e := range out {
			check(i, dst[e.Start:e.End], e.Found)
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkGetBatch64(b *testing.B) {
	cfg := DefaultConfig(64 << 20)
	cfg.Shards = 8
	st, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bkeys := make([][]byte, 64)
	for i := range bkeys {
		k := fmt.Sprintf("key:%05d", i)
		bkeys[i] = []byte(k)
		if err := st.Set(k, bytes.Repeat([]byte("x"), 64), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	var scr BatchScratch
	var dst []byte
	var out []BatchResult
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, out = st.GetBatchInto(dst[:0], bkeys, out[:0], &scr, math.MaxInt)
	}
	_ = out
}

func BenchmarkGetPerKey64(b *testing.B) {
	cfg := DefaultConfig(64 << 20)
	cfg.Shards = 8
	st, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%05d", i)
		if err := st.Set(keys[i], bytes.Repeat([]byte("x"), 64), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	var dst []byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, k := range keys {
			dst, _, _ = st.GetInto(dst, k)
		}
	}
}
