package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Race-regression coverage for the store's shared state: the CAS id
// counter, the per-shard stats blocks, and the crawler's counters. These
// tests are written to be meaningful under the race detector (CI runs
// `go test -race ./...`): every suspect structure is hit from multiple
// goroutines while readers aggregate it, so any regression from atomic
// or mutex-guarded counters to plain fields fails immediately. The final
// assertions additionally pin exact counts, so torn or lost updates fail
// even without -race.

// TestConcurrentCASStressExactCounts hammers CAS on a small shared key
// set from many goroutines and checks that every CAS outcome was
// accounted exactly once across the shard stats.
func TestConcurrentCASStressExactCounts(t *testing.T) {
	st, err := New(DefaultConfig(8 << 20))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	for i := 0; i < keys; i++ {
		if err := st.Set(fmt.Sprintf("cas-%d", i), []byte("0"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	const attempts = 400
	var wins, losses atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				key := fmt.Sprintf("cas-%d", i%keys)
				e, ok := st.Get(key)
				if !ok {
					t.Errorf("key %s vanished", key)
					return
				}
				_, err := st.Put(VerbCAS, key, []byte(fmt.Sprintf("g%d-%d", g, i)), 0, 0, e.CAS)
				switch err {
				case nil:
					wins.Add(1)
				case ErrExists:
					losses.Add(1)
				default:
					t.Errorf("cas: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := st.Stats()
	if s.CasHits != wins.Load() {
		t.Fatalf("CasHits = %d, want %d", s.CasHits, wins.Load())
	}
	if s.CasBadval != losses.Load() {
		t.Fatalf("CasBadval = %d, want %d", s.CasBadval, losses.Load())
	}
	if wins.Load()+losses.Load() != goroutines*attempts {
		t.Fatalf("accounted %d attempts, want %d", wins.Load()+losses.Load(), goroutines*attempts)
	}
	// Every winning CAS consumed a unique id from the shared counter, so
	// the latest CAS id must be at least sets + wins.
	for i := 0; i < keys; i++ {
		e, _ := st.Get(fmt.Sprintf("cas-%d", i))
		if e.CAS < uint64(keys) {
			t.Fatalf("implausible CAS id %d", e.CAS)
		}
	}
}

// TestStatsReadersDuringChurn aggregates Stats (counters and slab
// classes in one pass) and ItemCount from reader goroutines while
// writers churn sets, deletes and incrs — the access pattern a live
// "stats" verb or /metrics scrape sees under load.
func TestStatsReadersDuringChurn(t *testing.T) {
	cfg := DefaultConfig(8 << 20)
	cfg.Shards = 4
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Set("counter", []byte("0"), 0, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := st.Stats()
				if s.HitRate() < 0 || s.HitRate() > 1 {
					t.Errorf("hit rate out of range: %v", s.HitRate())
					return
				}
				if len(s.Classes) == 0 {
					t.Error("Stats reports no slab class after the first set")
					return
				}
				_ = st.ItemCount()
			}
		}()
	}

	const goroutines = 6
	const ops = 300
	var incrs atomic.Uint64
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("churn-%d-%d", g, i%32)
				switch i % 4 {
				case 0, 1:
					if err := st.Set(key, []byte("value"), 0, 0); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				case 2:
					_ = st.Delete(key)
				case 3:
					if _, err := st.Incr("counter", 1); err == nil {
						incrs.Add(1)
					}
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	v, err := st.Incr("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != incrs.Load() {
		t.Fatalf("counter = %d, want %d (lost increments)", v, incrs.Load())
	}
	if s := st.Stats(); s.IncrHits != incrs.Load()+1 { // +1 for the read-back Incr(0)
		t.Fatalf("IncrHits = %d, want %d", s.IncrHits, incrs.Load()+1)
	}
}

// TestCrawlerConcurrentWithWrites runs the background reaper on a short
// interval while writers keep inserting expiring items and moving the
// store's fake clock, which fires the crawler's sweeps among the
// writes, then checks the crawler's own counters are consistent.
func TestCrawlerConcurrentWithWrites(t *testing.T) {
	clk := newFakeClock(1_700_000_000)
	cfg := DefaultConfig(8 << 20)
	cfg.Clock = clk
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr := st.StartCrawler(time.Millisecond)
	defer cr.Stop()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("ttl-%d-%d", g, i)
				if err := st.Set(key, []byte("v"), 0, 1); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				if i%50 == 0 {
					clk.Advance(2 * time.Second) // push existing items past their TTL
				}
				_, _ = st.Get(key)
			}
		}(g)
	}
	wg.Wait()
	// One more interval after the writers: the sweep it fires reaps the
	// items written since the last advance, and is done once the
	// crawler waits again.
	before := st.Stats().Expired
	clk.BlockUntil(1)
	clk.Advance(2 * time.Second)
	clk.BlockUntil(1)
	cr.Stop()
	expired := st.Stats().Expired
	if expired <= before {
		t.Fatalf("expired = %d after the last sweep, %d before it: the sweep reaped nothing", expired, before)
	}
	if expired > 4*200 {
		t.Fatalf("expired %d items, more than were ever stored", expired)
	}
	if n := st.ItemCount(); n != 0 {
		t.Fatalf("%d items left after the last sweep, want 0", n)
	}
}
