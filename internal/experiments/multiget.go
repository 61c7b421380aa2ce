package experiments

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strings"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/kvstore"
	"kv3d/internal/memmodel"
	"kv3d/internal/protocol"
	"kv3d/internal/report"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
)

func init() {
	registry["multiget"] = Multiget
}

// Multiget quantifies the batched-GET amortization from both ends of
// the repo: the calibrated stack model (how much of Figure 4a's 87%
// network-stack share a k-key batch reclaims) and the live server's
// batched hot path (shard-lock acquisitions and heap allocations per
// batch, which the //kv3d:hotpath contract pins at <= Shards and 0).
// Sweep points are the bench's batch sizes: 1, 4, 16, 64.
func Multiget(o Options) (Result, error) {
	batchSizes := []int{1, 4, 16, 64}
	reqs := 200
	liveSmall, liveLarge := 64, 1024
	if o.Quick {
		reqs = 40
		liveSmall, liveLarge = 32, 288
	}

	// Closed-loop stack model: key throughput per core as the batch
	// grows, A7 and A15 Mercury at 64B values. Speedup is keys/s
	// relative to the same core's single-key GETs — the model-side
	// statement of the lock-once/parse-once server pipeline.
	simT := &report.Table{
		Title:   "Multiget batch sweep - closed-loop stack model, Mercury, 64B values",
		Columns: []string{"Batch", "A7 keys/s/core", "A7 speedup", "A15 keys/s/core", "A15 speedup"},
	}
	mercury := func(core cpu.Core) stackmodel.Config {
		return stackmodel.Config{
			Core:          core,
			Cache:         cache.L2MB2(),
			Mem:           memmodel.MustDRAM3D(10 * sim.Nanosecond),
			CoresPerStack: 1,
		}
	}
	keyTPS := func(cfg stackmodel.Config, k int) (float64, error) {
		st, err := stackmodel.NewStack(cfg)
		if err != nil {
			return 0, err
		}
		r, err := st.MeasureMultiget(k, 64, reqs)
		if err != nil {
			return 0, err
		}
		return r.TPSPerCore * float64(k), nil
	}
	cfgA7, cfgA15 := mercury(cpu.CortexA7()), mercury(cpu.MustCortexA15(1e9))
	baseA7, err := keyTPS(cfgA7, 1)
	if err != nil {
		return Result{}, err
	}
	baseA15, err := keyTPS(cfgA15, 1)
	if err != nil {
		return Result{}, err
	}
	for _, k := range batchSizes {
		a7, err := keyTPS(cfgA7, k)
		if err != nil {
			return Result{}, err
		}
		a15, err := keyTPS(cfgA15, k)
		if err != nil {
			return Result{}, err
		}
		simT.AddRow(k,
			fmt.Sprintf("%.0f", a7), fmt.Sprintf("%.2fx", a7/baseA7),
			fmt.Sprintf("%.0f", a15), fmt.Sprintf("%.2fx", a15/baseA15))
	}

	// Live server: drive the real ASCII session over the batched store
	// path and report the per-batch shard-lock and allocation cost.
	liveT := &report.Table{
		Title:   "Multiget batch sweep - live ASCII server hot path (in-process)",
		Columns: []string{"Batch", "Shard locks/batch", "Allocs/batch", "Lock bound (Shards)"},
	}
	for _, k := range batchSizes {
		locks, allocs, shards, err := measureLiveMultiget(k, liveSmall, liveLarge)
		if err != nil {
			return Result{}, err
		}
		liveT.AddRow(k, fmt.Sprintf("%.1f", locks), fmt.Sprintf("%.1f", allocs), shards)
	}

	return Result{
		ID:     "multiget",
		Title:  "Batched GET amortization",
		Tables: []*report.Table{simT, liveT},
	}, nil
}

// measureLiveMultiget serves sessions of small and large command counts
// (each command a k-key multiget) through the real protocol path and
// derives steady-state per-batch shard locks and heap allocations from
// the deltas — per-session setup cost cancels out exactly as in the
// hotpath alloc gates.
func measureLiveMultiget(k, small, large int) (locksPerOp, allocsPerOp float64, shards int, err error) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		return 0, 0, 0, err
	}
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%03d", i)
		if err := st.Set(keys[i], []byte("0123456789abcdef"), 0, 0); err != nil {
			return 0, 0, 0, err
		}
	}
	line := "get " + strings.Join(keys, " ") + "\r\n"
	session := func(n int) string {
		var b strings.Builder
		b.Grow((len(line))*n + 8)
		for i := 0; i < n; i++ {
			b.WriteString(line)
		}
		b.WriteString("quit\r\n")
		return b.String()
	}
	serve := func(req string) error {
		r := bufio.NewReaderSize(strings.NewReader(req), 4096)
		w := bufio.NewWriterSize(io.Discard, 4096)
		return protocol.NewSessionBuffered(st, r, w, protocol.Env{}).Serve()
	}
	measure := func(n int) (locks uint64, mallocs uint64, err error) {
		req := session(n)
		var m0, m1 runtime.MemStats
		// Memory statistics are snapshotted strictly outside the
		// lock-count window: ReadMemStats stops the world, and a pause
		// between serve and the closing ReadLockCount would let
		// background lock traffic leak into the measured delta.
		runtime.ReadMemStats(&m0)
		l0 := st.ReadLockCount()
		if err := serve(req); err != nil {
			return 0, 0, err
		}
		locks = st.ReadLockCount() - l0
		runtime.ReadMemStats(&m1)
		return locks, m1.Mallocs - m0.Mallocs, nil
	}
	// Warm once so both measured sessions see identical steady state.
	if err := serve(session(4)); err != nil {
		return 0, 0, 0, err
	}
	lSmall, aSmall, err := measure(small)
	if err != nil {
		return 0, 0, 0, err
	}
	lLarge, aLarge, err := measure(large)
	if err != nil {
		return 0, 0, 0, err
	}
	ops := float64(large - small)
	locksPerOp = float64(lLarge-lSmall) / ops
	allocsPerOp = float64(aLarge) - float64(aSmall)
	if allocsPerOp < 0 {
		allocsPerOp = 0
	}
	allocsPerOp /= ops
	return locksPerOp, allocsPerOp, st.Config().Shards, nil
}
