package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/sim"
)

// fakeClock is a clock.Fake set in whole unix seconds, for expiry tests.
type fakeClock struct{ *clock.Fake }

func newFakeClock(unix int64) fakeClock {
	return fakeClock{clock.NewFake(sim.Ns(unix) * sim.Ns(time.Second))}
}

// set moves the clock to unix second s.
func (c fakeClock) set(s int64) { c.Advance(time.Duration(sim.Ns(s)*sim.Ns(time.Second) - c.Now())) }

func newTestStore(t *testing.T, mut func(*Config)) *Store {
	t.Helper()
	cfg := DefaultConfig(32 << 20)
	cfg.Shards = 4
	if mut != nil {
		mut(&cfg)
	}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSetGetRoundTrip(t *testing.T) {
	st := newTestStore(t, nil)
	if err := st.Set("hello", []byte("world"), 42, 0); err != nil {
		t.Fatal(err)
	}
	e, ok := st.Get("hello")
	if !ok {
		t.Fatal("get miss after set")
	}
	if _, out := batchInto(st, "hello"); string(e.Value) != "world" || out[0].Flags != 42 || e.CAS == 0 || out[0].CAS != e.CAS {
		t.Fatalf("entry = %+v, flags %d", e, out[0].Flags)
	}
}

func TestGetMiss(t *testing.T) {
	st := newTestStore(t, nil)
	if _, ok := st.Get("nope"); ok {
		t.Fatal("hit on absent key")
	}
	s := st.Stats()
	if s.GetMisses != 1 {
		t.Fatalf("misses = %d", s.GetMisses)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", []byte("abc"), 0, 0)
	e, _ := st.Get("k")
	e.Value[0] = 'X'
	e2, _ := st.Get("k")
	if string(e2.Value) != "abc" {
		t.Fatal("Get must return an independent copy")
	}
}

func TestGetInto(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", []byte("value"), 7, 0)
	buf := []byte("prefix:")
	out, e, ok := st.GetInto(buf, "k")
	if !ok || string(out) != "prefix:value" || e.CAS == 0 {
		t.Fatalf("GetInto = %q ok=%v cas=%d", out, ok, e.CAS)
	}
	if _, _, ok := st.GetInto(nil, "absent"); ok {
		t.Fatal("GetInto hit on absent key")
	}
}

func TestOverwriteSameClassKeepsBytesAccounting(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", bytes.Repeat([]byte("a"), 100), 0, 0)
	before := st.Stats().BytesUsed
	st.Set("k", bytes.Repeat([]byte("b"), 90), 0, 0)
	after := st.Stats().BytesUsed
	if after != before-10 {
		t.Fatalf("bytes accounting drifted: %d -> %d", before, after)
	}
	e, _ := st.Get("k")
	if len(e.Value) != 90 || e.Value[0] != 'b' {
		t.Fatalf("overwrite result wrong: %d bytes", len(e.Value))
	}
}

func TestOverwriteDifferentClass(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", bytes.Repeat([]byte("a"), 50), 0, 0)
	st.Set("k", bytes.Repeat([]byte("b"), 50_000), 0, 0)
	e, ok := st.Get("k")
	if !ok || len(e.Value) != 50_000 {
		t.Fatal("cross-class overwrite failed")
	}
	if st.ItemCount() != 1 {
		t.Fatalf("item count = %d", st.ItemCount())
	}
}

func TestCASMonotonicAndChanges(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", []byte("v1"), 0, 0)
	e1, _ := st.Get("k")
	st.Set("k", []byte("v2"), 0, 0)
	e2, _ := st.Get("k")
	if e2.CAS <= e1.CAS {
		t.Fatalf("CAS not monotonic: %d then %d", e1.CAS, e2.CAS)
	}
}

func TestCASOperation(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", []byte("v1"), 0, 0)
	e, _ := st.Get("k")
	if _, err := st.Put(VerbCAS, "k", []byte("v2"), 0, 0, e.CAS); err != nil {
		t.Fatalf("matching CAS failed: %v", err)
	}
	if _, err := st.Put(VerbCAS, "k", []byte("v3"), 0, 0, e.CAS); !errors.Is(err, ErrExists) {
		t.Fatalf("stale CAS should return ErrExists, got %v", err)
	}
	if _, err := st.Put(VerbCAS, "absent", []byte("v"), 0, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CAS on absent key should return ErrNotFound, got %v", err)
	}
	s := st.Stats()
	if s.CasHits != 1 || s.CasBadval != 1 || s.CasMisses != 1 {
		t.Fatalf("cas stats = %+v", s)
	}
}

func TestAddReplace(t *testing.T) {
	st := newTestStore(t, nil)
	if _, err := st.Put(VerbReplace, "k", []byte("v"), 0, 0, 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace absent = %v", err)
	}
	if _, err := st.Put(VerbAdd, "k", []byte("v"), 0, 0, 0); err != nil {
		t.Fatalf("add new = %v", err)
	}
	if _, err := st.Put(VerbAdd, "k", []byte("v2"), 0, 0, 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("add existing = %v", err)
	}
	if _, err := st.Put(VerbReplace, "k", []byte("v2"), 0, 0, 0); err != nil {
		t.Fatalf("replace existing = %v", err)
	}
	e, _ := st.Get("k")
	if string(e.Value) != "v2" {
		t.Fatalf("value = %q", e.Value)
	}
}

func TestAppendPrepend(t *testing.T) {
	st := newTestStore(t, nil)
	if err := st.Append("k", []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append absent = %v", err)
	}
	st.Set("k", []byte("mid"), 5, 0)
	st.Append("k", []byte("-end"))
	st.Prepend("k", []byte("start-"))
	e, _ := st.Get("k")
	if string(e.Value) != "start-mid-end" {
		t.Fatalf("value = %q", e.Value)
	}
	if _, out := batchInto(st, "k"); out[0].Flags != 5 {
		t.Fatalf("flags lost: %d", out[0].Flags)
	}
}

func TestIncrDecr(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("n", []byte("10"), 0, 0)
	if v, err := st.Incr("n", 5); err != nil || v != 15 {
		t.Fatalf("incr = %d, %v", v, err)
	}
	if v, _, err := st.IncrDecr("n", 20, false); err != nil || v != 0 {
		t.Fatalf("decr should floor at 0, got %d, %v", v, err)
	}
	if _, err := st.Incr("absent", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("incr absent = %v", err)
	}
	st.Set("s", []byte("abc"), 0, 0)
	if _, err := st.Incr("s", 1); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("incr non-numeric = %v", err)
	}
	e, _ := st.Get("n")
	if string(e.Value) != "0" {
		t.Fatalf("stored numeric = %q", e.Value)
	}
}

func TestDelete(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", []byte("v"), 0, 0)
	if err := st.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k"); ok {
		t.Fatal("deleted key visible")
	}
	if err := st.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestExpiry(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("k", []byte("v"), 0, 60) // relative: expires at 1060
	if _, ok := st.Get("k"); !ok {
		t.Fatal("not expired yet")
	}
	clk.set(1059)
	if _, ok := st.Get("k"); !ok {
		t.Fatal("expired too early")
	}
	clk.set(1060)
	if _, ok := st.Get("k"); ok {
		t.Fatal("should be expired")
	}
	s := st.Stats()
	if s.Expired == 0 {
		t.Fatal("expired counter not bumped")
	}
}

func TestExpiryAbsolute(t *testing.T) {
	clk := newFakeClock(5_000_000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("k", []byte("v"), 0, 5_000_100) // > 30 days: absolute
	clk.set(5_000_099)
	if _, ok := st.Get("k"); !ok {
		t.Fatal("absolute expiry fired early")
	}
	clk.set(5_000_100)
	if _, ok := st.Get("k"); ok {
		t.Fatal("absolute expiry missed")
	}
}

func TestExpiryNegativeImmediate(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("k", []byte("v"), 0, -1)
	if _, ok := st.Get("k"); ok {
		t.Fatal("negative exptime should mean already expired")
	}
}

func TestTouch(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("k", []byte("v"), 0, 10)
	if err := st.Touch("k", 100); err != nil {
		t.Fatal(err)
	}
	clk.set(1050) // would have expired at 1010 without touch
	if _, ok := st.Get("k"); !ok {
		t.Fatal("touch did not extend TTL")
	}
	if err := st.Touch("absent", 100); !errors.Is(err, ErrNotFound) {
		t.Fatalf("touch absent = %v", err)
	}
}

// The flush_all tests hold the clock still unless they say otherwise:
// the contract is about the order of calls, not about seconds.

func TestFlushAll(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("a", []byte("1"), 0, 0)
	st.Set("b", []byte("2"), 0, 0)
	st.FlushAll(0)
	clk.set(1001)
	if _, ok := st.Get("a"); ok {
		t.Fatal("flush_all left a visible")
	}
	if _, ok := st.Get("b"); ok {
		t.Fatal("flush_all left b visible")
	}
	// New writes after the flush must survive.
	st.Set("c", []byte("3"), 0, 0)
	if _, ok := st.Get("c"); !ok {
		t.Fatal("post-flush write lost")
	}
}

// TestFlushAllIsImmediate: what was stored before flush_all is gone
// when it returns, in the same second. (The epoch used to be now+1 and
// waited for the clock to reach it.)
func TestFlushAllIsImmediate(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("a", []byte("1"), 0, 0)
	st.FlushAll(0)
	if _, ok := st.Get("a"); ok {
		t.Fatal("set a; flush_all; get a: hit in the same second")
	}
	if err := st.Touch("a", 0); err != ErrNotFound {
		t.Fatalf("touch of a flushed key = %v, want ErrNotFound", err)
	}
	if _, err := st.Put(VerbAdd, "a", []byte("2"), 0, 0, 0); err != nil {
		t.Fatalf("add over a flushed key = %v, want stored", err)
	}
}

// TestFlushAllIsExact: what is stored after flush_all survives it, in
// the same second and once the second ticks. (It used to die at the
// tick: stored at second 1000 is "before" the epoch 1001.)
func TestFlushAllIsExact(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("b", []byte("old"), 0, 0)
	st.FlushAll(0)
	st.Set("b", []byte("new"), 0, 0) // over the dead item, in place
	st.Set("c", []byte("new"), 0, 0)
	for _, now := range []int64{1000, 1001, 5000} {
		clk.set(now)
		for _, key := range []string{"b", "c"} {
			if e, ok := st.Get(key); !ok || string(e.Value) != "new" {
				t.Fatalf("flush_all; set %s; get %s at clock %d: %q, %v", key, key, now, e.Value, ok)
			}
		}
	}
	if reaped, _ := st.SweepExpired(); reaped != 0 {
		t.Fatalf("sweep reaped %d items stored after the flush", reaped)
	}
}

func TestFlushAllDelayed(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("a", []byte("1"), 0, 0)
	st.FlushAll(50) // due at 1050
	clk.set(1049)
	st.Set("b", []byte("1"), 0, 0)
	if _, ok := st.Get("a"); !ok {
		t.Fatal("delayed flush should not fire yet")
	}
	clk.set(1050)
	// A store that finds the flush due is stored after it.
	st.Set("c", []byte("1"), 0, 0)
	for key, want := range map[string]bool{"a": false, "b": false, "c": true} {
		if _, ok := st.Get(key); ok != want {
			t.Fatalf("at the due time get %s = %v, want %v", key, ok, want)
		}
	}
	// It fires once: later stores are not under it.
	clk.set(1051)
	st.Set("d", []byte("1"), 0, 0)
	clk.set(2000)
	if _, ok := st.Get("d"); !ok {
		t.Fatal("a fired delayed flush killed a later store")
	}
}

// TestFlushAllImmediateWhileDelayedPending: an immediate flush_all is
// not absorbed by a pending delayed one (it used to be dropped: its
// epoch was not above the pending one), and the pending one still fires
// at its time.
func TestFlushAllImmediateWhileDelayedPending(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("a", []byte("1"), 0, 0)
	st.FlushAll(50)
	st.FlushAll(0)
	if _, ok := st.Get("a"); ok {
		t.Fatal("flush_all 50; flush_all; get a: hit")
	}
	st.Set("b", []byte("1"), 0, 0)
	clk.set(1049)
	if _, ok := st.Get("b"); !ok {
		t.Fatal("b, stored after the immediate flush, gone before the delayed one is due")
	}
	clk.set(1050)
	if _, ok := st.Get("b"); ok {
		t.Fatal("the pending delayed flush did not fire at its time")
	}
	// A newer delayed flush replaces the pending one (memcached keeps
	// one oldest_live); a delay no clock can reach never fires. 1<<33
	// seconds (the year 2242) is near the end of a nanosecond clock.
	st.Set("c", []byte("1"), 0, 0)
	st.FlushAll(10)
	st.FlushAll(math.MaxInt64)
	clk.set(1 << 33)
	if _, ok := st.Get("c"); !ok {
		t.Fatal("a replaced delayed flush fired, or an unreachable delay wrapped around")
	}
}

// TestFlushAllConcurrentWithStores runs flushes against writers on every
// shard (for the race detector: the watermark is read from the
// store-wide CAS counter under each shard's lock) and then checks the
// contract once the writers have stopped: a flush leaves nothing, and
// the next store survives it.
func TestFlushAllConcurrentWithStores(t *testing.T) {
	// The clock stands still, so the delayed flushes stay pending and
	// the last two checks do not race a second boundary.
	st := newTestStore(t, func(c *Config) { c.Clock = newFakeClock(1000) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%d", w, i%64)
				if err := st.Set(key, []byte("v"), 0, 0); err != nil {
					t.Error(err)
					return
				}
				st.Get(key)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		st.FlushAll(int64(i % 2)) // immediate, and delayed by a second
	}
	close(stop)
	wg.Wait()
	st.FlushAll(0)
	if reaped, visited := st.SweepExpired(); reaped != visited || st.ItemCount() != 0 {
		t.Fatalf("after flush_all the sweep reaped %d of %d items and %d are left", reaped, visited, st.ItemCount())
	}
	st.Set("after", []byte("v"), 0, 0)
	if _, ok := st.Get("after"); !ok {
		t.Fatal("a store after the last flush is gone")
	}
}

func TestBadKeys(t *testing.T) {
	st := newTestStore(t, nil)
	for _, key := range []string{"", "has space", "has\nnewline", strings.Repeat("x", MaxKeyLen+1)} {
		if err := st.Set(key, []byte("v"), 0, 0); !errors.Is(err, ErrBadKey) {
			t.Errorf("Set(%q) = %v, want ErrBadKey", key, err)
		}
	}
	if err := st.Set(strings.Repeat("k", MaxKeyLen), []byte("v"), 0, 0); err != nil {
		t.Errorf("max-length key rejected: %v", err)
	}
}

func TestTooLargeValue(t *testing.T) {
	st := newTestStore(t, nil)
	big := make([]byte, DefaultMaxItemSize+1)
	if err := st.Set("k", big, 0, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize set = %v", err)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	st := newTestStore(t, func(c *Config) {
		c.MemoryLimit = 4 << 20
		c.Shards = 1
	})
	val := bytes.Repeat([]byte("v"), 10_000)
	for i := 0; i < 2000; i++ {
		if err := st.Set(fmt.Sprintf("key-%d", i), val, 0, 0); err != nil {
			t.Fatalf("set %d failed: %v", i, err)
		}
	}
	s := st.Stats()
	if s.Evictions == 0 {
		t.Fatal("expected evictions under memory pressure")
	}
	if s.SlabBytes > 4<<20 {
		t.Fatalf("slab bytes %d exceed limit", s.SlabBytes)
	}
	// Most recent keys should still be resident (eviction takes old ones).
	if _, ok := st.Get("key-1999"); !ok {
		t.Fatal("most recent key evicted")
	}
}

func TestEvictionDisabledErrors(t *testing.T) {
	st := newTestStore(t, func(c *Config) {
		c.MemoryLimit = 2 << 20
		c.Shards = 1
		c.EvictionsEnabled = false
		c.SlabPageSize = 1 << 20
	})
	val := bytes.Repeat([]byte("v"), 100_000)
	var sawOOM bool
	for i := 0; i < 100; i++ {
		if err := st.Set(fmt.Sprintf("key-%d", i), val, 0, 0); errors.Is(err, ErrOutOfMemory) {
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("expected ErrOutOfMemory with evictions disabled")
	}
}

func TestBagsPolicyEndToEnd(t *testing.T) {
	st := newTestStore(t, func(c *Config) {
		c.MemoryLimit = 4 << 20
		c.Shards = 1
	})
	val := bytes.Repeat([]byte("v"), 10_000)
	for i := 0; i < 1000; i++ {
		if err := st.Set(fmt.Sprintf("key-%d", i), val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		// Keep key-0 hot so the second-chance logic protects it.
		if _, ok := st.Get("key-0"); !ok && i < 50 {
			t.Fatalf("key-0 lost at step %d", i)
		}
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("the store never evicted")
	}
}

func TestGlobalVsStripedEquivalence(t *testing.T) {
	ops := func(st *Store) string {
		var log strings.Builder
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("k%d", i%50)
			switch i % 4 {
			case 0:
				st.Set(key, []byte(fmt.Sprintf("v%d", i)), 0, 0)
			case 1:
				e, ok := st.Get(key)
				fmt.Fprintf(&log, "get %s %v %s;", key, ok, e.Value)
			case 2:
				st.Incr("counter", 1)
			case 3:
				st.Delete(key)
			}
		}
		return log.String()
	}
	g := newTestStore(t, func(c *Config) { c.Shards = 1 })
	g.Set("counter", []byte("0"), 0, 0)
	s := newTestStore(t, func(c *Config) { c.Shards = 8 })
	s.Set("counter", []byte("0"), 0, 0)
	if got, want := ops(s), ops(g); got != want {
		t.Fatalf("striped and global stores diverged:\n%s\nvs\n%s", got, want)
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := newTestStore(t, func(c *Config) { c.Shards = 16 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%100)
				st.Set(key, []byte("value"), 0, 0)
				st.Get(key)
				if i%10 == 0 {
					st.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	s := st.Stats()
	if s.Sets != 8000 {
		t.Fatalf("sets = %d, want 8000", s.Sets)
	}
}

func TestConcurrentSharedCounter(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("n", []byte("0"), 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := st.Incr("n", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e, _ := st.Get("n")
	if string(e.Value) != "4000" {
		t.Fatalf("counter = %s, want 4000", e.Value)
	}
}

func TestStatsHitRate(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("k", []byte("v"), 0, 0)
	st.Get("k")
	st.Get("k")
	st.Get("absent")
	s := st.Stats()
	if s.GetHits != 2 || s.GetMisses != 1 {
		t.Fatalf("hits/misses = %d/%d", s.GetHits, s.GetMisses)
	}
	if hr := s.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("idle hit rate should be 0")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
	cfg := DefaultConfig(1 << 20)
	cfg.Shards = 64 // 64 shards × 1MiB pages > 1MiB limit
	if _, err := New(cfg); err == nil {
		t.Fatal("limit too small for shards must be rejected")
	}
	cfg = DefaultConfig(64 << 20)
	cfg.MaxItemSize = 2 << 20
	cfg.SlabPageSize = 1 << 20
	if _, err := New(cfg); err == nil {
		t.Fatal("item size above page size must be rejected")
	}
	// The header's value length is 24 bits: an item limit it cannot hold
	// is refused, not truncated. 16 MiB itself is fine.
	cfg = DefaultConfig(256 << 20)
	cfg.Shards = 1
	cfg.MaxItemSize, cfg.SlabPageSize = 16<<20, 16<<20
	if _, err := New(cfg); err != nil {
		t.Fatalf("16 MiB items rejected: %v", err)
	}
	cfg.MaxItemSize, cfg.SlabPageSize = 16<<20+8, 16<<20+8
	if _, err := New(cfg); err == nil {
		t.Fatal("an item limit above 16 MiB must be rejected")
	}
}

func TestShardsRoundedToPowerOfTwo(t *testing.T) {
	st := newTestStore(t, func(c *Config) { c.Shards = 5 })
	if got := st.Config().Shards; got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}
}

// TestStoreModelEquivalenceProperty drives the store and a plain map with
// the same operations and checks observable equivalence.
func TestStoreModelEquivalenceProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value uint16
	}
	f := func(ops []op) bool {
		st := newTestStore(t, func(c *Config) { c.Shards = 1 })
		model := make(map[string]string)
		for _, o := range ops {
			key := fmt.Sprintf("key-%d", o.Key%32)
			val := fmt.Sprintf("val-%d", o.Value)
			switch o.Kind % 3 {
			case 0:
				if st.Set(key, []byte(val), 0, 0) == nil {
					model[key] = val
				}
			case 1:
				e, ok := st.Get(key)
				want, wantOK := model[key]
				if ok != wantOK {
					return false
				}
				if ok && string(e.Value) != want {
					return false
				}
			case 2:
				err := st.Delete(key)
				_, wantOK := model[key]
				if (err == nil) != wantOK {
					return false
				}
				delete(model, key)
			}
		}
		return st.ItemCount() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlabReassignmentCuresCalcification(t *testing.T) {
	// Fill the store with small items (all pages go to small classes),
	// then switch the workload to large items. Without page
	// reassignment the large class could never allocate; with it the
	// store adapts.
	st := newTestStore(t, func(c *Config) {
		c.MemoryLimit = 8 << 20
		c.Shards = 1
	})
	small := bytes.Repeat([]byte("s"), 100)
	for i := 0; i < 50_000; i++ {
		if err := st.Set(fmt.Sprintf("small-%d", i), small, 0, 0); err != nil {
			t.Fatalf("small set %d: %v", i, err)
		}
	}
	large := bytes.Repeat([]byte("L"), 700_000)
	for i := 0; i < 20; i++ {
		if err := st.Set(fmt.Sprintf("large-%d", i), large, 0, 0); err != nil {
			t.Fatalf("large set %d failed despite reassignment: %v", i, err)
		}
	}
	s := st.Stats()
	if s.SlabReassigns == 0 {
		t.Fatal("expected slab reassignments")
	}
	// Recent large items must be retrievable.
	e, ok := st.Get("large-19")
	if !ok || len(e.Value) != 700_000 {
		t.Fatal("large item lost")
	}
	// And the store can still serve small items after reassignment.
	if err := st.Set("small-again", small, 0, 0); err != nil {
		t.Fatalf("small set after reassignment: %v", err)
	}
}

func TestReassignmentPreservesIntegrity(t *testing.T) {
	// Alternate small and large working sets repeatedly; every read must
	// return exactly what was written (no aliased pages).
	st := newTestStore(t, func(c *Config) {
		c.MemoryLimit = 8 << 20
		c.Shards = 1
	})
	for round := 0; round < 4; round++ {
		size := 100
		if round%2 == 1 {
			size = 300_000
		}
		val := bytes.Repeat([]byte{byte('a' + round)}, size)
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("r%d-%d", round, i)
			if err := st.Set(key, val, 0, 0); err != nil {
				continue // memory pressure may reject; that's fine
			}
			e, ok := st.Get(key)
			if !ok {
				continue // may have been evicted
			}
			if !bytes.Equal(e.Value, val) {
				t.Fatalf("round %d key %s corrupted", round, key)
			}
		}
	}
}

func TestSlabStats(t *testing.T) {
	st := newTestStore(t, nil)
	st.Set("small", bytes.Repeat([]byte("s"), 10), 0, 0)
	st.Set("large", bytes.Repeat([]byte("L"), 100_000), 0, 0)
	classes := st.Stats().Classes
	if len(classes) < 2 {
		t.Fatalf("expected at least two active classes, got %d", len(classes))
	}
	var used int
	for _, c := range classes {
		if c.Pages <= 0 || c.ChunkSize <= 0 {
			t.Fatalf("bad class %+v", c)
		}
		used += c.UsedChunks
	}
	if used != 2 {
		t.Fatalf("used chunks = %d, want 2", used)
	}
}
