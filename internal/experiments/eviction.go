package experiments

import (
	"fmt"

	"kv3d/internal/kvstore"
	"kv3d/internal/report"
	"kv3d/internal/workload"
)

func init() {
	registry["eviction"] = EvictionQuality
}

// EvictionQuality compares strict LRU against the Bags pseudo-LRU on
// hit rate under Zipf traffic with cache-fill-on-miss — the question
// Wiggins & Langston's design raises: Bags removes the read-path lock
// (the Table 4 scaling win), but does its weaker recency signal cost
// hits? Both policies run the identical request stream on identical
// stores; only the eviction policy differs.
func EvictionQuality(o Options) (Result, error) {
	requests := 150_000
	if o.Quick {
		requests = 30_000
	}
	t := &report.Table{
		Title:   "Eviction quality: strict LRU vs Bags pseudo-LRU (fill-on-miss)",
		Columns: []string{"Zipf skew", "Cache/working set", "LRU hit %", "Bags hit %", "Bags deficit"},
		Note:    "identical request streams; deficit = LRU hit rate - Bags hit rate",
	}
	type scenario struct {
		skew      float64
		memBytes  int64
		valueSize int64
		keys      int
	}
	scenarios := []scenario{
		{0.99, 8 << 20, 1024, 40_000},  // cache ~18% of working set
		{0.99, 24 << 20, 1024, 40_000}, // cache ~55%
		{1.2, 8 << 20, 1024, 40_000},   // hotter traffic
	}
	for _, sc := range scenarios {
		rates := map[kvstore.EvictionPolicy]float64{}
		for _, pol := range []kvstore.EvictionPolicy{kvstore.PolicyLRU, kvstore.PolicyBags} {
			hit, err := runFillOnMiss(pol, sc.memBytes, sc.valueSize, sc.keys, sc.skew, requests)
			if err != nil {
				return Result{}, err
			}
			rates[pol] = hit
		}
		coverage := float64(sc.memBytes) / (float64(sc.keys) * float64(sc.valueSize))
		t.AddRow(sc.skew,
			fmt.Sprintf("%.0f%%", coverage*100),
			fmt.Sprintf("%.1f", rates[kvstore.PolicyLRU]*100),
			fmt.Sprintf("%.1f", rates[kvstore.PolicyBags]*100),
			fmt.Sprintf("%.1f pp", (rates[kvstore.PolicyLRU]-rates[kvstore.PolicyBags])*100))
	}
	return Result{ID: "eviction", Title: "Eviction quality", Tables: []*report.Table{t}}, nil
}

// runFillOnMiss drives a fill-on-miss cache loop and returns the
// steady-state hit rate (misses during the warm half are discarded).
func runFillOnMiss(pol kvstore.EvictionPolicy, memBytes, valueSize int64, keys int, skew float64, requests int) (float64, error) {
	cfg := kvstore.DefaultConfig(memBytes)
	cfg.Shards = 1
	cfg.Policy = pol
	// A logical clock (one tick per store call) replaces the wall-clock
	// default: Bags second-chance decisions compare item access stamps
	// against bag creation eras, so hit rates would otherwise depend on
	// which host second each request happened to land in, and the table
	// would drift run-to-run.
	var tick int64
	cfg.Clock = func() int64 { tick++; return tick }
	st, err := kvstore.New(cfg)
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewGenerator(workload.MixConfig{
		GetFraction: 1.0,
		Keys:        keys,
		ZipfSkew:    skew,
		Values:      workload.FixedSize(valueSize),
		Seed:        17,
	})
	if err != nil {
		return 0, err
	}
	value := make([]byte, valueSize)
	var hits, total int
	warm := requests / 2
	for i := 0; i < requests; i++ {
		req := gen.Next()
		_, ok := st.Get(req.Key)
		if !ok {
			// Fill from the backing store.
			if err := st.Set(req.Key, value, 0, 0); err != nil {
				return 0, err
			}
		}
		if i >= warm {
			total++
			if ok {
				hits++
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("experiments: no measured requests")
	}
	return float64(hits) / float64(total), nil
}
