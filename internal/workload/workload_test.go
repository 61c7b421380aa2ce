package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"kv3d/internal/sim"
)

func TestSizeSweep(t *testing.T) {
	sizes := SizeSweep()
	if len(sizes) != 15 {
		t.Fatalf("sweep has %d points, want 15 (64B..1MB doubling)", len(sizes))
	}
	if sizes[0] != 64 || sizes[len(sizes)-1] != 1<<20 {
		t.Fatalf("sweep endpoints: %d..%d", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1]*2 {
			t.Fatal("sweep must double")
		}
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(1.01, 0); err == nil {
		t.Fatal("zero n accepted")
	}
	if _, err := NewZipf(0, 10); err == nil {
		t.Fatal("zero skew accepted")
	}
	if _, err := NewZipf(1.01, math.MaxInt32); err == nil {
		t.Fatal("n past the int32 guide table accepted")
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	z, err := NewZipf(1.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(1)
	counts := make(map[int]int)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	top10 := 0
	for rank := 0; rank < 10; rank++ {
		top10 += counts[rank]
	}
	if frac := float64(top10) / n; frac < 0.25 {
		t.Fatalf("top-10 keys got %.1f%% of traffic, want heavy skew", frac*100)
	}
	if counts[0] < counts[100] {
		t.Fatal("rank 0 must be hotter than rank 100")
	}
}

func TestZipfSampleInRangeProperty(t *testing.T) {
	z, _ := NewZipf(0.8, 100)
	r := sim.NewRand(2)
	f := func(uint8) bool {
		v := z.Sample(r)
		return v >= 0 && v < len(z.cdf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fullSearch is the draw Sample made before its guide table: a binary
// search of the whole CDF for the first rank whose value is at least u.
func fullSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesFullSearch holds the guided draw to the full
// search, draw for draw: a million draws from the Rand stream per case
// through Sample itself, both ends of [0, 1), and the values where a
// guide bucket or a rank begins, where an off-by-one would show.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	cases := []struct {
		s float64
		n int
	}{
		{0.99, 500_000}, {0.99, 200_000}, {1.01, 1_000_000},
		{0.99, 1}, {0.99, 7}, {0.99, 100}, {1.01, 1}, {1.01, 7}, {1.01, 100},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("s=%v/n=%d", c.s, c.n), func(t *testing.T) {
			z, err := NewZipf(c.s, c.n)
			if err != nil {
				t.Fatal(err)
			}
			check := func(u float64) {
				t.Helper()
				if got, want := z.rank(u), fullSearch(z.cdf, u); got != want {
					t.Fatalf("u=%v (%b): guided rank %d, full search %d", u, math.Float64bits(u), got, want)
				}
			}
			check(0)
			check(math.Nextafter(1, 0))
			// Bucket starts j/n and rank edges cdf[i], each with both
			// neighbours: every i up to 1000, then ever sparser.
			for i := 0; i < c.n; i += 1 + i/1000 {
				for _, x := range []float64{float64(i) / float64(c.n), z.cdf[i]} {
					for _, u := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, 1)} {
						if u >= 0 && u < 1 {
							check(u)
						}
					}
				}
			}
			sample, ref := sim.NewRand(uint64(c.n)), sim.NewRand(uint64(c.n))
			for d := 0; d < 1_000_000; d++ {
				if got, want := z.Sample(sample), fullSearch(z.cdf, ref.Float64()); got != want {
					t.Fatalf("draw %d: Sample %d, full search %d", d, got, want)
				}
			}
		})
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(MixConfig{GetFraction: 1.5, Keys: 10}); err == nil {
		t.Fatal("bad get fraction accepted")
	}
	if _, err := NewGenerator(MixConfig{GetFraction: 0.9, Keys: 0}); err == nil {
		t.Fatal("zero keys accepted")
	}
}

func TestGeneratorMix(t *testing.T) {
	g, err := NewGenerator(MixConfig{GetFraction: 0.9, Keys: 1000, ZipfSkew: 1.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gets := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		req := g.Next()
		if req.IsGet {
			gets++
		}
		if req.Key == "" || req.ValueBytes <= 0 {
			t.Fatalf("bad request %+v", req)
		}
	}
	frac := float64(gets) / n
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("get fraction = %.3f, want ~0.9", frac)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() *Generator {
		g, _ := NewGenerator(MixConfig{GetFraction: 0.5, Keys: 100, Seed: 42})
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatal("same seed must generate the same stream")
		}
	}
}

func TestGeneratorUniformWithoutSkew(t *testing.T) {
	g, _ := NewGenerator(MixConfig{GetFraction: 1, Keys: 10, Seed: 3})
	counts := map[string]int{}
	for i := 0; i < 10_000; i++ {
		counts[g.Next().Key]++
	}
	for k, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform key %s drawn %d times of 10000", k, c)
		}
	}
}

func TestFixedSize(t *testing.T) {
	if FixedSize(128).Sample(nil) != 128 {
		t.Fatal("fixed size")
	}
}

func TestETCSizesShape(t *testing.T) {
	r := sim.NewRand(5)
	var small, large int
	const n = 50_000
	for i := 0; i < n; i++ {
		v := ETCSizes{}.Sample(r)
		if v <= 0 || v > 1<<20 {
			t.Fatalf("ETC size out of range: %d", v)
		}
		if v < 1024 {
			small++
		}
		if v >= 64<<10 {
			large++
		}
	}
	if float64(small)/n < 0.6 {
		t.Fatalf("ETC should be dominated by small values, got %.2f", float64(small)/n)
	}
	if large == 0 {
		t.Fatal("ETC needs a heavy tail")
	}
}

func TestMcDipperSizesShape(t *testing.T) {
	r := sim.NewRand(6)
	var sum int64
	const n = 20_000
	for i := 0; i < n; i++ {
		v := McDipperSizes{}.Sample(r)
		if v < 8<<10 || v > 1<<20 {
			t.Fatalf("photo size out of range: %d", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 20<<10 || mean > 200<<10 {
		t.Fatalf("photo mean size = %d, want tens-to-hundreds of KB", mean)
	}
}
