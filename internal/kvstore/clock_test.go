package kvstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kv3d/internal/sim"
)

// tickClock advances one second on every read, the eviction
// experiment's logical clock.
type tickClock struct{ fakeClock }

func (c tickClock) Now() sim.Ns {
	c.Advance(time.Second)
	return c.Fake.Now()
}

// TestUptimeFollowsInjectedClock is the regression test for the wall
// clock that used to hide inside Stats(): uptime was computed with
// time.Since(start), so a store driven by a virtual clock still reported
// host-time uptime. It must follow the injected Clock exclusively.
func TestUptimeFollowsInjectedClock(t *testing.T) {
	clk := newFakeClock(1_000)
	cfg := DefaultConfig(16 << 20)
	cfg.Clock = clk
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if up := st.Stats().UptimeSeconds; up != 0 {
		t.Fatalf("uptime at birth = %d, want 0", up)
	}
	clk.set(1_042)
	if up := st.Stats().UptimeSeconds; up != 42 {
		t.Fatalf("uptime = %d, want 42", up)
	}
}

// TestWallClockDefault checks that a nil Clock still yields a working
// store on the live-server path.
func TestWallClockDefault(t *testing.T) {
	st, err := New(DefaultConfig(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if st.Config().Clock == nil {
		t.Fatal("nil Clock not defaulted")
	}
	if err := st.Set("k", []byte("v"), 0, 60); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k"); !ok {
		t.Fatal("relative expiry against the wall clock lost the key")
	}
	if up := st.Stats().UptimeSeconds; up < 0 || up > 5 {
		t.Fatalf("implausible uptime %d for a fresh store", up)
	}
}

// TestBagsSecondChanceDeterministicUnderLogicalClock pins the property
// the eviction experiment depends on: with a logical clock, identical
// request streams against identical stores evict identically
// (byte-identical stats), independent of host timing.
func TestBagsSecondChanceDeterministicUnderLogicalClock(t *testing.T) {
	run := func() Stats {
		cfg := DefaultConfig(1 << 20)
		cfg.Shards = 1
		cfg.Clock = tickClock{newFakeClock(0)}
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		value := make([]byte, 4096)
		// Deterministic skewed stream: 4 of 5 requests hit 50 hot keys
		// (earning second chances), the rest sweep 1000 cold keys so the
		// 1MB budget keeps evicting.
		for i := 0; i < 6_000; i++ {
			var key string
			if i%5 != 0 {
				key = fmt.Sprintf("hot-%03d", i%50)
			} else {
				key = fmt.Sprintf("cold-%04d", (i/5)%1000)
			}
			if _, ok := st.Get(key); !ok {
				if err := st.Set(key, value, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("eviction not deterministic:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
	if a.Evictions == 0 {
		t.Fatal("scenario never evicted; it does not exercise second-chance logic")
	}
}

// countingClock counts its reads.
type countingClock struct {
	fakeClock
	reads *int
}

func (c countingClock) Now() sim.Ns {
	*c.reads++
	return c.Fake.Now()
}

// TestStoreReadsClockOnlyForDeadlines pins when a store call reads its
// clock: only when it judges an item that has an expiry, fires or
// schedules a delayed flush, or turns a relative exptime into a
// deadline — and then once per call. An item stored with exptime 0 in
// a store with no flush pending is read, written and deleted without
// a clock read.
func TestStoreReadsClockOnlyForDeadlines(t *testing.T) {
	newStore := func(t *testing.T) (*Store, *int) {
		t.Helper()
		reads := new(int)
		cfg := DefaultConfig(16 << 20)
		cfg.Clock = countingClock{newFakeClock(1_000), reads}
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st, reads
	}
	calls := []struct {
		name string
		call func(st *Store, exptime int64)
	}{
		{"get", func(st *Store, _ int64) { st.Get("k") }},
		{"batch get", func(st *Store, _ int64) {
			var scr BatchScratch
			st.GetBatchInto(nil, [][]byte{[]byte("k"), []byte("k"), []byte("j")}, nil, &scr, 0)
		}},
		{"set", func(st *Store, exptime int64) { st.Set("k", []byte("w"), 0, exptime) }},
		{"delete", func(st *Store, _ int64) { st.Delete("k") }},
	}
	for _, tc := range []struct {
		name    string
		setup   func(st *Store)
		want    int
		exptime int64
	}{
		{"exptime 0", func(st *Store) {}, 0, 0},
		{"relative exptime", func(st *Store) {}, 1, 100},
		{"absolute exptime", func(st *Store) {}, 1, 5_000_000_000},
		{"pending flush", func(st *Store) { st.FlushAll(60) }, 1, 0},
	} {
		for _, c := range calls {
			st, reads := newStore(t)
			if err := st.Set("k", []byte("v"), 0, tc.exptime); err != nil {
				t.Fatal(err)
			}
			tc.setup(st)
			*reads = 0
			c.call(st, tc.exptime)
			want := tc.want
			if c.name == "set" && tc.name == "absolute exptime" {
				want = 0 // an absolute deadline needs no clock, and a set does not judge the item it overwrites
			}
			if *reads != want {
				t.Errorf("%s of an item with %s: %d clock reads, want %d", c.name, tc.name, *reads, want)
			}
		}
	}
	// A set that needs the time twice, for a relative deadline and for
	// a pending flush, still reads the clock once.
	st, reads := newStore(t)
	st.FlushAll(60)
	*reads = 0
	if err := st.Set("k", []byte("v"), 0, 100); err != nil {
		t.Fatal(err)
	}
	if *reads != 1 {
		t.Errorf("set with exptime 100 and a pending flush: %d clock reads, want 1", *reads)
	}
}
