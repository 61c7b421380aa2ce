package sim

import "testing"

func TestPsNsRoundTrip(t *testing.T) {
	cases := []struct {
		ps Ps
		ns Ns
	}{
		{0, 0},
		{1, 0},    // sub-ns rounds down
		{499, 0},  // just under half
		{500, 1},  // half rounds away from zero
		{1000, 1}, // exact
		{1499, 1},
		{1500, 2},
		{-500, -1}, // symmetric for negative spans
		{-499, 0},
		{1_000_000, 1000},
	}
	for _, c := range cases {
		if got := PsToNs(c.ps); got != c.ns {
			t.Errorf("PsToNs(%d) = %d, want %d", c.ps, got, c.ns)
		}
	}
	for _, n := range []Ns{0, 1, -3, 12345} {
		if got := NsToPs(n); got != Ps(n)*1000 {
			t.Errorf("NsToPs(%d) = %d", n, got)
		}
		if back := PsToNs(NsToPs(n)); back != n {
			t.Errorf("PsToNs(NsToPs(%d)) = %d", n, back)
		}
	}
}

// TestCyclesToPsMatchesLegacyArithmetic pins the conversion to the
// exact arithmetic the model packages used before the typed seam
// (Duration(float64(period) * cycles)): calibrated outputs, including
// the serversim golden traces, must not move.
func TestCyclesToPsMatchesLegacyArithmetic(t *testing.T) {
	periods := []Duration{400, 667, 1000} // 2.5GHz, 1.5GHz, 1GHz
	cycles := []float64{0, 1, 2.5, 12, 21.7, 1000}
	for _, p := range periods {
		for _, c := range cycles {
			legacy := Duration(float64(p) * c)
			if got := CyclesToPs(c, p).Duration(); got != legacy {
				t.Errorf("CyclesToPs(%v, %v) = %v, legacy arithmetic gives %v", c, p, got, legacy)
			}
		}
	}
}

func TestDurationTypedAccessors(t *testing.T) {
	d := 1500 * Nanosecond
	if d.Ps() != 1_500_000 {
		t.Errorf("Ps() = %d", d.Ps())
	}
	if (Ps(7)).Duration() != 7 {
		t.Errorf("Ps.Duration() = %v", Ps(7).Duration())
	}
}

// PsToNs and NsToPs convert between the two units; no non-test code
// crosses from Ps to Ns, so they live here, pinned by
// TestPsNsRoundTrip.
//
// PsToNs converts picoseconds to nanoseconds, rounding to nearest
// (half away from zero). Rounding — not truncation — keeps sub-ns
// picosecond values from silently vanishing at the seam.
func PsToNs(p Ps) Ns {
	if p >= 0 {
		return Ns((p + 500) / 1000)
	}
	return Ns((p - 500) / 1000)
}

// NsToPs converts nanoseconds to picoseconds. Exact: the kernel unit
// is finer.
func NsToPs(n Ns) Ps { return Ps(n) * 1000 }
