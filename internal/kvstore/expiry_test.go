package kvstore

import (
	"testing"
)

// TestExpiryTable pins the memcached exptime contract across the three
// regimes: 0 = never, negative = immediately expired, positive ≤ 30
// days = relative to now, positive > 30 days = absolute unix seconds.
// The negative rows run at clock t=0 — the value a fresh injected sim
// clock starts at — which is the regression for the pre-fix encoding
// (negative exptimes mapped to absolute second 1, still live for any
// store whose clock had not yet passed 1).
func TestExpiryTable(t *testing.T) {
	const (
		thirtyDays = 60 * 60 * 24 * 30
		lastExpiry = 1<<32 - 2 // 2106-02-07 06:28:14 UTC
	)
	cases := []struct {
		name    string
		now     int64 // clock at set time
		exptime int64
		probeAt []int64 // clock values where the item must be visible
		goneAt  []int64 // clock values where the item must be gone
	}{
		{"zero-never", 1000, 0, []int64{1000, 1 << 40}, nil},
		{"negative-at-t0", 0, -1, nil, []int64{0, 1, 1000}},
		{"negative-at-t0-large", 0, -12345678, nil, []int64{0, 1}},
		{"negative-wall-clock", 1_700_000_000, -1, nil, []int64{1_700_000_000}},
		{"relative-boundary", 1000, thirtyDays, []int64{1000, 1000 + thirtyDays - 1}, []int64{1000 + thirtyDays}},
		{"relative-small", 1000, 10, []int64{1009}, []int64{1010}},
		{"absolute-past-cutoff", 1000, thirtyDays + 1, nil, []int64{int64(thirtyDays) + 1, 1 << 40}},
		{"absolute-future", 1000, 5_000_000, []int64{4_999_999}, []int64{5_000_000}},
		// The header keeps 32 bits of expiry: the last date it can hold
		// is exact, and anything later — here the year 2242 — saturates
		// there instead of wrapping into the past.
		{"absolute-last-second", 1000, lastExpiry, []int64{lastExpiry - 1}, []int64{lastExpiry}},
		{"absolute-beyond-2106", 1000, 1 << 33, []int64{1000, 4_000_000_000, lastExpiry - 1}, nil},
		{"relative-at-t0", 0, 1, []int64{0}, []int64{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock(tc.now)
			st := newTestStore(t, func(c *Config) { c.Clock = clk })
			if err := st.Set("k", []byte("v"), 0, tc.exptime); err != nil {
				t.Fatal(err)
			}
			for _, at := range tc.probeAt {
				clk.set(at)
				if _, ok := st.Get("k"); !ok {
					t.Fatalf("exptime=%d: item gone at clock %d, want visible", tc.exptime, at)
				}
			}
			for _, at := range tc.goneAt {
				clk.set(at)
				if _, ok := st.Get("k"); ok {
					t.Fatalf("exptime=%d: item visible at clock %d, want gone", tc.exptime, at)
				}
			}
		})
	}
}

// TestExpiryNegativeTouch covers the same sentinel through Touch: a
// negative touch exptime kills the item even at clock t=0.
func TestExpiryNegativeTouch(t *testing.T) {
	clk := newFakeClock(0)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	if err := st.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Touch("k", -1); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k"); ok {
		t.Fatal("touch -1 at clock t=0 left item visible")
	}
}

// TestExpirySurfaceStaysInt64: callers still see absolute expiries as
// int64 — 0 never, -1 the already-expired mark — whatever the header
// stores; a date past the header's range reads back saturated.
func TestExpirySurfaceStaysInt64(t *testing.T) {
	clk := newFakeClock(0)
	st := newTestStore(t, func(c *Config) { c.Clock = clk })
	for _, tc := range []struct{ exptime, want int64 }{
		{0, 0},
		{10, 10},
		{5_000_000, 5_000_000},
		{1<<32 - 2, 1<<32 - 2},
		{1<<32 - 1, 1<<32 - 2},
		{1 << 40, 1<<32 - 2},
	} {
		if err := st.Set("k", []byte("v"), 0, tc.exptime); err != nil {
			t.Fatal(err)
		}
		if got := st.peek("k"); !got.found || got.expireAt != tc.want {
			t.Fatalf("exptime %d reads back as %d (found %v), want %d", tc.exptime, got.expireAt, got.found, tc.want)
		}
	}
	// The mark itself, as the shard hands it to an append's rewrite.
	mem := newTestMem(t)
	c := mem.alloc.chunk(mem.mk("k", 0))
	c.setExpireAt(expiredNow)
	if c.expireAt() != expiredNow || !c.expired(0) {
		t.Fatalf("the already-expired mark reads back as %d, expired at t=0: %v", c.expireAt(), c.expired(0))
	}
}

// peek returns a copy of the entry plus its absolute expiry (unix
// seconds, 0 = never): the tests' reference read of what the store
// holds, which no read of the store exposes. Unlike a read it neither
// counts a hit/miss nor promotes the item in the eviction policy, so a
// probe does not change what it observes.
func (st *Store) peek(key string) opResult {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, c := sh.s.live(k, hash, &now)
	if h == 0 {
		return opResult{}
	}
	value := append([]byte(nil), c.value()...)
	return opResult{found: true, value: value, flags: c.flags(), cas: c.casID(), expireAt: c.expireAt()}
}
