package sim

import "testing"

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
