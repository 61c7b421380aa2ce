package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 2, 3, 4, 5} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Percentile(0) != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %d/%d", h.Percentile(0), h.Max())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below 16 are stored exactly.
	h := NewHistogram()
	for i := int64(0); i < 16; i++ {
		h.Record(i)
	}
	for p, want := range map[float64]int64{50: 7, 100: 15} {
		if got := h.Percentile(p); got != want {
			t.Errorf("p%v = %d, want %d", p, got, want)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Percentile(0) != 0 {
		t.Fatalf("negative samples should clamp to 0, min = %d", h.Percentile(0))
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Relative error of any percentile must stay within one sub-bucket
	// (1/16 = 6.25%).
	h := NewHistogram()
	var raw []int64
	for i := 0; i < 10000; i++ {
		v := int64(i*i + 1)
		h.Record(v)
		raw = append(raw, v)
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		got := float64(h.Percentile(p))
		want := float64(ExactPercentile(raw, p))
		if math.Abs(got-want)/want > 0.07 {
			t.Errorf("p%v = %v, exact %v (err %.2f%%)", p, got, want, 100*math.Abs(got-want)/want)
		}
	}
}

func TestBucketMonotonicProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return bucketIndex(x) <= bucketIndex(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketLowConsistentProperty(t *testing.T) {
	// bucketLow(bucketIndex(v)) <= v for all v >= 0.
	f := func(a uint64) bool {
		v := int64(a >> 1) // keep positive
		i := bucketIndex(v)
		return bucketLow(i) <= v && (i == len(new(Histogram).counts)-1 || bucketLow(i+1) > v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	h := NewHistogram()
	// 900 samples at ~100us (in ps), 100 at ~10ms.
	for i := 0; i < 900; i++ {
		h.Record(100_000_000)
	}
	for i := 0; i < 100; i++ {
		h.Record(10_000_000_000)
	}
	if got := h.FractionBelow(1_000_000_000); math.Abs(got-0.9) > 0.001 {
		t.Fatalf("FractionBelow(1ms) = %v, want 0.9", got)
	}
	if got := h.FractionBelow(0); got != 0 {
		t.Fatalf("FractionBelow(0) = %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
	}
	for i := int64(101); i <= 200; i++ {
		b.Record(i)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Percentile(0) != 1 || a.Max() != 200 {
		t.Fatalf("merged min/max = %d/%d", a.Percentile(0), a.Max())
	}
	if math.Abs(a.Mean()-100.5) > 1e-9 {
		t.Fatalf("merged mean = %v", a.Mean())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	a := NewHistogram()
	a.Record(5)
	a.Merge(NewHistogram())
	if a.Count() != 1 || a.Percentile(0) != 5 {
		t.Fatal("merging an empty histogram must not disturb stats")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(7)
	if h.Percentile(0) != 7 || h.Max() != 7 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestHistogramSummarize(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("summary count = %d", s.Count)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("summary percentiles not ordered: %+v", s)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	if h.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestPercentileEdges(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Record(2000)
	if got := h.Percentile(0); got != 1000 {
		t.Fatalf("p0 = %d", got)
	}
	if got := h.Percentile(100); got != 2000 {
		t.Fatalf("p100 = %d", got)
	}
}

func TestExactPercentile(t *testing.T) {
	s := []int64{5, 1, 3, 2, 4}
	if got := ExactPercentile(s, 50); got != 3 {
		t.Fatalf("exact p50 = %d", got)
	}
	if got := ExactPercentile(s, 0); got != 1 {
		t.Fatalf("exact p0 = %d", got)
	}
	if got := ExactPercentile(s, 100); got != 5 {
		t.Fatalf("exact p100 = %d", got)
	}
	if got := ExactPercentile(nil, 50); got != 0 {
		t.Fatalf("exact on empty = %d", got)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("ExactPercentile mutated its input")
	}
}

func TestMergeEqualsSingleRecording(t *testing.T) {
	// Recording a stream split across shards and merging must be
	// bit-identical to recording the whole stream into one histogram —
	// the property the per-stack/per-op aggregation in serversim and
	// kvserver relies on. Histogram is a comparable value type, so the
	// equality check covers every bucket and scalar.
	rng := rand.New(rand.NewSource(99))
	shards := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	all := NewHistogram()
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(1 << 30)
		shards[i%len(shards)].Record(v)
		all.Record(v)
	}
	merged := NewHistogram()
	for _, s := range shards {
		merged.Merge(s)
	}
	if *merged != *all {
		t.Fatalf("merge != single recording:\nmerged: %v\nsingle: %v",
			merged.Summarize(), all.Summarize())
	}
	// Reset then re-merge reproduces it again: Reset leaves no residue.
	merged.Reset()
	if *merged != *NewHistogram() {
		t.Fatal("Reset left residue")
	}
	for _, s := range shards {
		merged.Merge(s)
	}
	if *merged != *all {
		t.Fatal("re-merge after Reset diverged")
	}
}

// TestHistogramRecordNMatchesRecord holds RecordN to n Record calls of
// the split it documents: n-r samples of total/n and r of total/n+1,
// r = total%n, so the samples sum to total.
func TestHistogramRecordNMatchesRecord(t *testing.T) {
	for _, tc := range []struct {
		n     int
		total int64
	}{{1, 0}, {1, 7}, {16, 1}, {16, 0}, {16, 15}, {16, 16}, {16, 1000}, {32, 123_457}, {3, -5}, {0, 9}} {
		got, want := NewHistogram(), NewHistogram()
		got.Record(40) // RecordN adds to what is there
		want.Record(40)
		got.RecordN(tc.n, tc.total)
		total := max(tc.total, 0)
		var sum int64
		for i := 0; i < tc.n; i++ {
			v := total / int64(tc.n)
			if int64(i) < total%int64(tc.n) {
				v++
			}
			want.Record(v)
			sum += v
		}
		if *got != *want {
			t.Errorf("RecordN(%d, %d) = %v, want %v", tc.n, tc.total, got, want)
		}
		if tc.n > 0 && sum != total {
			t.Errorf("the split of %d over %d sums to %d", total, tc.n, sum)
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// ExactPercentile computes a percentile from a raw sample slice (the reference
// the histogram's approximation is checked against). p in [0,100].
func ExactPercentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}
