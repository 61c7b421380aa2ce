// Package metrics provides the measurement primitives used by the kv3d
// models and harness: log-bucketed latency histograms with percentile
// queries. Everything is plain
// single-threaded value code; concurrency (if any) is owned by callers.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a log-linear histogram of int64 samples (typically
// latencies in picoseconds). Values are bucketed with ~4.5% relative
// error: 16 linear sub-buckets per power of two. That is accurate enough
// for the paper's percentile claims ("a majority of requests within the
// sub-millisecond range") while staying allocation-free on record.
type Histogram struct {
	counts [64 * subBuckets]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const subBuckets = 16

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: math.MinInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v) // exact for tiny values
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Position within the power-of-two range, in sub-bucket units.
	frac := (v - (1 << exp)) >> (exp - 4) // exp >= 4 here
	return exp*subBuckets + int(frac)
}

// bucketLow returns the lowest value that maps into bucket i; used to
// report percentile values.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i / subBuckets
	if exp >= 63 {
		// Positive int64 values max out at exponent 62, so these
		// buckets are unreachable; saturate for callers probing i+1.
		return math.MaxInt64
	}
	frac := int64(i % subBuckets)
	return (int64(1) << exp) + frac<<(exp-4)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds n samples whose sum is exactly total: total/n each,
// one more for total%n of them (n < 1 records nothing). It is how a
// batch of n operations timed as one interval is recorded.
func (h *Histogram) RecordN(n int, total int64) {
	if n < 1 {
		return
	}
	if total < 0 {
		total = 0
	}
	q, r := total/int64(n), total%int64(n)
	h.counts[bucketIndex(q)] += uint64(int64(n) - r)
	h.counts[bucketIndex(q+1)] += uint64(r)
	h.total += uint64(n)
	h.sum += float64(total)
	if q < h.min {
		h.min = q
	}
	hi := q
	if r > 0 {
		hi = q + 1
	}
	if hi > h.max {
		h.max = hi
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of the samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded sample, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns an approximation (bucket lower bound) of the p-th
// percentile, p in [0, 100].
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// FractionBelow returns the fraction of samples strictly below v
// (bucket-granular, rounding pessimistically into the containing bucket).
func (h *Histogram) FractionBelow(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	idx := bucketIndex(v)
	var below uint64
	for i := 0; i < idx; i++ {
		below += h.counts[i]
	}
	return float64(below) / float64(h.total)
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String summarizes the histogram for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		h.total, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Summary holds the standard set of statistics reported by experiments.
type Summary struct {
	Count uint64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
	Max   int64
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
	}
}
