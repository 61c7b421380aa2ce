package main

import (
	"testing"

	"kv3d/internal/sim"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"1024":  1024,
		"64k":   64 << 10,
		"64K":   64 << 10,
		"256m":  256 << 20,
		"2g":    2 << 30,
		" 16m ": 16 << 20,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil {
			t.Errorf("parseSize(%q) error: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "12x", "m"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) should fail", bad)
		}
	}
}

// -flight 0 (the default) and a negative -flight mean recording off: a
// nil recorder, never obs's keep-everything mode, so no flag lets a
// live server's trace grow without bound. A positive value is a ring.
func TestFlightFlagIsOffOrARing(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if rec := flightRecorder(capacity); rec != nil {
			t.Errorf("-flight %d gave a recorder, want nil (off)", capacity)
		}
	}
	rec := flightRecorder(16)
	for i := 0; i < 20; i++ {
		rec.Instant(0, "ev", sim.Ns(i))
	}
	if got := rec.Dropped(); got != 4 {
		t.Fatalf("-flight 16 after 20 events dropped %d, want 4 (a 16-slot ring)", got)
	}
}
