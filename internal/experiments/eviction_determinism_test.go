package experiments

import "testing"

// TestEvictionQualityReproducible pins the determinism contract for the
// one experiment that drives the live kvstore rather than the sim
// kernel: with the injected logical clock and the seeded workload
// generator, two runs must render byte-identical tables.
func TestEvictionQualityReproducible(t *testing.T) {
	render := func() string {
		r, err := EvictionQuality(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tb := range r.Tables {
			out += tb.String()
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("eviction experiment not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
