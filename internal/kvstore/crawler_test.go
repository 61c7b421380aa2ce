package kvstore

import (
	"fmt"
	"testing"
	"time"
)

func TestSweepExpired(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	for i := 0; i < 100; i++ {
		ttl := int64(0)
		if i%2 == 0 {
			ttl = 10 // expires at 1010
		}
		st.Set(fmt.Sprintf("k%d", i), []byte("v"), 0, ttl)
	}
	if r, _ := st.SweepExpired(); r != 0 {
		t.Fatalf("nothing should be expired yet, reaped %d", r)
	}
	clk.set(1011)
	reaped, visited := st.SweepExpired()
	if reaped != 50 {
		t.Fatalf("reaped %d, want 50", reaped)
	}
	if visited != 100 {
		t.Fatalf("visited %d, want 100", visited)
	}
	if st.ItemCount() != 50 {
		t.Fatalf("items = %d, want 50", st.ItemCount())
	}
	// Sweep again: nothing left to reap.
	if r, _ := st.SweepExpired(); r != 0 {
		t.Fatalf("second sweep reaped %d", r)
	}
}

func TestSweepReclaimsFlushedItems(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	st.Set("a", []byte("1"), 0, 0)
	st.FlushAll(0)
	clk.set(1002)
	reaped, _ := st.SweepExpired()
	if reaped != 1 {
		t.Fatalf("flush-dead item not swept: %d", reaped)
	}
}

func TestSweepFreesMemoryForReuse(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) {
		c.Clock = clk
		c.MemoryLimit = 4 << 20
		c.Shards = 1
		c.EvictionsEnabled = false
	})
	val := make([]byte, 100_000)
	var stored int
	for i := 0; ; i++ {
		if err := st.Set(fmt.Sprintf("k%d", i), val, 0, 5); err != nil {
			break
		}
		stored++
	}
	if stored == 0 {
		t.Fatal("nothing stored")
	}
	// All items expire; sweep must make room for new writes without
	// evictions enabled.
	clk.set(1006)
	st.SweepExpired()
	if err := st.Set("fresh", val, 0, 0); err != nil {
		t.Fatalf("set after sweep: %v", err)
	}
}

// TestCrawlerLifecycle drives the crawler on the store's fake clock:
// one interval passes, exactly one sweep runs and reaps every expired
// item, and nothing waits in real time.
func TestCrawlerLifecycle(t *testing.T) {
	clk := newFakeClock(1000)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	for i := 0; i < 20; i++ {
		st.Set(fmt.Sprintf("k%d", i), []byte("v"), 0, 1)
	}
	clk.set(1005)
	c := st.StartCrawler(time.Millisecond)
	clk.BlockUntil(1)
	clk.Advance(time.Millisecond)
	clk.BlockUntil(1) // the crawler waits again once its sweep is done
	c.Stop()
	c.Stop() // idempotent
	if got := st.Stats().Expired; got != 20 {
		t.Fatalf("expired = %d after one sweep, want 20", got)
	}
	if n := st.ItemCount(); n != 0 {
		t.Fatalf("%d items left after the sweep, want 0", n)
	}
}

func TestCrawlerDefaultInterval(t *testing.T) {
	st := newTestStore(t, nil)
	c := st.StartCrawler(0)
	if c.interval != time.Second {
		t.Fatalf("default interval = %v", c.interval)
	}
	c.Stop()
}
