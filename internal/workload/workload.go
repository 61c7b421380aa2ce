// Package workload generates the request streams the experiments and
// examples use: the paper's request-size sweep (64B–1MB, doubling),
// Zipfian key popularity, GET/PUT mixes, and an ETC-like value-size
// distribution modeled on the Atikoglu et al. (SIGMETRICS 2012) workload
// analysis the paper cites.
package workload

import (
	"fmt"
	"math"

	"kv3d/internal/sim"
)

// SizeSweep returns the paper's request sizes: 64B to 1MB, doubling
// (§5.2), 15 points.
func SizeSweep() []int64 {
	var out []int64
	for s := int64(64); s <= 1<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s by inverting a precomputed CDF. Deterministic given the
// Rand stream.
//
// A draw u finds the first rank whose CDF value is at least u. A guide
// table (Chen and Asau's indexed search) narrows that search to a few
// ranks: guide[j] is the first rank i with int(cdf[i]*n) >= j, and u is
// searched for only in cdf[guide[j]..guide[j+1]] with j = int(u*n).
// The answer is exact, not approximate: a floating-point product with n
// never decreases when its other factor grows, so every rank below
// guide[j] has cdf < u and the rank at guide[j+1] has cdf >= u, and the
// narrowed search returns for every u the rank a search of the whole
// CDF returns. The guide costs 4(n+2) bytes beside the CDF's 8n.
type Zipf struct {
	cdf   []float64
	guide []int32
}

// NewZipf builds the distribution; s is the skew (1.01 is the classic
// memcached-trace value), n the key-space size.
func NewZipf(s float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf needs positive n, got %d", n)
	}
	if n >= math.MaxInt32 {
		return nil, fmt.Errorf("workload: zipf n %d overflows its int32 guide table", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("workload: zipf skew must be positive, got %v", s)
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// u*n can round up to n itself, so j runs to n and guide[j+1] to n+1.
	guide := make([]int32, n+2)
	i := 0
	for j := range guide {
		for i < n && int(cdf[i]*float64(n)) < j {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide}, nil
}

// Sample draws a rank; rank 0 is the hottest key.
func (z *Zipf) Sample(r *sim.Rand) int { return z.rank(r.Float64()) }

// rank is the first rank whose CDF value is at least u in [0, 1).
func (z *Zipf) rank(u float64) int {
	j := int(u * float64(len(z.cdf)))
	lo, hi := int(z.guide[j]), min(int(z.guide[j+1]), len(z.cdf)-1)
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Request is one generated operation.
type Request struct {
	// Key is the rank-derived key name.
	Key string
	// IsGet distinguishes GET from SET.
	IsGet bool
	// ValueBytes is the object size (for SETs, and the expected size of
	// GET responses).
	ValueBytes int64
}

// MixConfig configures a request generator.
type MixConfig struct {
	// GetFraction is the read share; Facebook's ETC pool runs ~0.97.
	GetFraction float64
	// Keys is the key-space size.
	Keys int
	// ZipfSkew shapes popularity (0 disables skew: uniform).
	ZipfSkew float64
	// Values picks object sizes.
	Values ValueSizer
	// Seed makes the stream reproducible.
	Seed uint64
}

// Generator produces a deterministic request stream.
type Generator struct {
	cfg  MixConfig
	rng  *sim.Rand
	zipf *Zipf
}

// NewGenerator validates and builds a generator.
func NewGenerator(cfg MixConfig) (*Generator, error) {
	if cfg.GetFraction < 0 || cfg.GetFraction > 1 {
		return nil, fmt.Errorf("workload: get fraction %v outside [0,1]", cfg.GetFraction)
	}
	if cfg.Keys <= 0 {
		return nil, fmt.Errorf("workload: need a positive key count, got %d", cfg.Keys)
	}
	if cfg.Values == nil {
		cfg.Values = FixedSize(64)
	}
	g := &Generator{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
	if cfg.ZipfSkew > 0 {
		z, err := NewZipf(cfg.ZipfSkew, cfg.Keys)
		if err != nil {
			return nil, err
		}
		g.zipf = z
	}
	return g, nil
}

// Next produces the next request.
func (g *Generator) Next() Request {
	var rank int
	if g.zipf != nil {
		rank = g.zipf.Sample(g.rng)
	} else {
		rank = g.rng.Intn(g.cfg.Keys)
	}
	return Request{
		Key:        fmt.Sprintf("key:%08d", rank),
		IsGet:      g.rng.Float64() < g.cfg.GetFraction,
		ValueBytes: g.cfg.Values.Sample(g.rng),
	}
}

// ValueSizer draws object sizes.
type ValueSizer interface {
	Sample(r *sim.Rand) int64
}

// FixedSize always returns the same size.
type FixedSize int64

// Sample implements ValueSizer.
func (f FixedSize) Sample(*sim.Rand) int64 { return int64(f) }

// ETCSizes approximates the Facebook ETC value-size distribution from
// Atikoglu et al.: dominated by tiny values with a heavy tail.
type ETCSizes struct{}

// Sample implements ValueSizer: a discretized mixture fitted to the
// published CDF (median ≈ a few hundred bytes, tail to 1MB).
func (ETCSizes) Sample(r *sim.Rand) int64 {
	u := r.Float64()
	switch {
	case u < 0.40:
		return 11 + int64(r.Intn(90)) // tiny values, tens of bytes
	case u < 0.70:
		return 100 + int64(r.Intn(400))
	case u < 0.90:
		return 500 + int64(r.Intn(3600))
	case u < 0.99:
		return 4 << 10 << uint(r.Intn(4)) // 4-32KB
	default:
		return 64 << 10 << uint(r.Intn(5)) // 64KB-1MB tail
	}
}

// McDipperSizes models a Facebook photo-serving working set: large
// objects, low request rate (the Iridium target workload, §3.5).
type McDipperSizes struct{}

// Sample implements ValueSizer.
func (McDipperSizes) Sample(r *sim.Rand) int64 {
	u := r.Float64()
	switch {
	case u < 0.5:
		return 8<<10 + int64(r.Intn(24<<10)) // thumbnails 8-32KB
	case u < 0.9:
		return 32<<10 + int64(r.Intn(96<<10)) // medium photos
	default:
		return 128<<10 + int64(r.Intn(896<<10)) // originals up to 1MB
	}
}
