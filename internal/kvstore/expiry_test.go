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
			clk := &fakeClock{now: tc.now}
			st := newTestStore(t, func(c *Config) { c.Clock = clk.fn })
			if err := st.Set("k", []byte("v"), 0, tc.exptime); err != nil {
				t.Fatal(err)
			}
			for _, at := range tc.probeAt {
				clk.now = at
				if _, ok := st.Get("k"); !ok {
					t.Fatalf("exptime=%d: item gone at clock %d, want visible", tc.exptime, at)
				}
			}
			for _, at := range tc.goneAt {
				clk.now = at
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
	clk := &fakeClock{now: 0}
	st := newTestStore(t, func(c *Config) { c.Clock = clk.fn })
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
	clk := &fakeClock{now: 0}
	st := newTestStore(t, func(c *Config) { c.Clock = clk.fn })
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
		if _, at, ok := st.GetWithExpiry("k"); !ok || at != tc.want {
			t.Fatalf("exptime %d reads back as %d (found %v), want %d", tc.exptime, at, ok, tc.want)
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
