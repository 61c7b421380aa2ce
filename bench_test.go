package kv3d

// The benchmark harness: one benchmark per experiment (regenerating a
// paper table, figure or extension study end to end), microbenchmarks
// of the functional kvstore, and the ablation benches DESIGN.md calls
// out (L2 on/off, lock striping, port sharing). Run:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable4 -v

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/experiments"
	"kv3d/internal/kvstore"
	"kv3d/internal/memmodel"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/serversim"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
	"kv3d/internal/testutil"
	"kv3d/internal/workload"
)

// --- one benchmark per table / figure ----------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkTable1 regenerates the component power/area table.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates the memory-technology comparison.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates the 1.5U maximum-configuration table.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates the prior-art comparison and headline
// ratios.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFigure4 regenerates the GET/PUT breakdown.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates the Mercury-1 DRAM latency sweep.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates the Iridium-1 Flash latency sweep.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates density-vs-throughput.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates power-vs-throughput.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkThermal regenerates the §6.5 cooling analysis.
func BenchmarkThermal(b *testing.B) { benchExperiment(b, "thermal") }

// BenchmarkEvictionQuality regenerates the Bags-vs-exact-LRU hit-rate
// study.
func BenchmarkEvictionQuality(b *testing.B) { benchExperiment(b, "eviction") }

// BenchmarkLoadLatency regenerates the open-loop load/latency study.
func BenchmarkLoadLatency(b *testing.B) { benchExperiment(b, "loadlatency") }

// --- functional kvstore microbenchmarks --------------------------------

func newBenchStore(b *testing.B, shards int) *kvstore.Store {
	b.Helper()
	cfg := kvstore.DefaultConfig(256 << 20)
	cfg.Shards = shards
	st, err := kvstore.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func preload(b *testing.B, st *kvstore.Store, n int, valueBytes int) []string {
	b.Helper()
	keys := make([]string, n)
	val := make([]byte, valueBytes)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%08d", i)
		if err := st.Set(keys[i], val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	return keys
}

// BenchmarkStoreGet measures single-threaded GET latency.
func BenchmarkStoreGet(b *testing.B) {
	st := newBenchStore(b, 16)
	keys := preload(b, st, 65536, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(keys[i&65535]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreGetInto measures the allocation-free read path.
func BenchmarkStoreGetInto(b *testing.B) {
	st := newBenchStore(b, 16)
	keys := preload(b, st, 65536, 64)
	buf := make([]byte, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, ok := st.GetInto(buf[:0], keys[i&65535])
		if !ok {
			b.Fatal("miss")
		}
		buf = out
	}
}

// BenchmarkStoreSet measures single-threaded overwrite throughput.
func BenchmarkStoreSet(b *testing.B) {
	st := newBenchStore(b, 16)
	keys := preload(b, st, 65536, 64)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Set(keys[i&65535], val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePreload measures a server's preload in process: 500,000
// × 100 B PutBytes of new keys into a fresh DefaultConfig(1 GiB) store,
// the population rtt_get loads. Every op inserts a new key, so index
// misses, inserts and growth are most of what it times beside the value
// copies.
func BenchmarkStorePreload(b *testing.B) {
	const n = 500_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key:%08d", i))
	}
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := kvstore.New(kvstore.DefaultConfig(1 << 30))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, k := range keys {
			if _, err := st.PutBytes(kvstore.VerbSet, k, val, 0, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStorePreloadBatch is BenchmarkStorePreload through PutBatch,
// 32 keys a call — the longest run of stores a session serves — as a
// pipelined preload reaches the store: one lock per shard a call
// touches instead of one per key.
func BenchmarkStorePreloadBatch(b *testing.B) {
	const n, run = 500_000, 32
	puts := make([]kvstore.BatchPut, n)
	val := make([]byte, 100)
	for i := range puts {
		puts[i] = kvstore.BatchPut{Key: []byte(fmt.Sprintf("key:%08d", i)), Value: val}
	}
	var scr kvstore.BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := kvstore.New(kvstore.DefaultConfig(1 << 30))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < n; j += run {
			batch := puts[j:min(j+run, n)]
			st.PutBatch(batch, &scr)
			for _, p := range batch {
				if p.Err != nil {
					b.Fatal(p.Err)
				}
			}
		}
	}
}

// --- batched GET (multiget) ---------------------------------------------

// BenchmarkMultiget regenerates the batched-GET amortization study
// (sim batch-size sweep plus live hot-path lock/alloc accounting).
func BenchmarkMultiget(b *testing.B) { benchExperiment(b, "multiget") }

// BenchmarkMultigetStoreBatch64 measures the zero-alloc 64-key batch
// read (GetBatchInto) against the striped store, rotating through the
// key space so every shard stays warm.
func BenchmarkMultigetStoreBatch64(b *testing.B) {
	st := newBenchStore(b, 16)
	keys := preload(b, st, 65536, 64)
	bkeys := make([][]byte, 64)
	for i := range bkeys {
		bkeys[i] = []byte(keys[i])
	}
	var scr kvstore.BatchScratch
	var dst []byte
	var out []kvstore.BatchResult
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range bkeys {
			bkeys[j] = append(bkeys[j][:0], keys[(i*64+j)&65535]...)
		}
		dst, out = st.GetBatchInto(dst[:0], bkeys, out[:0], &scr, math.MaxInt)
		if len(out) != 64 {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkMultigetSimBatch16 measures the closed-loop stack model's
// 16-key multiget and reports the simulated key throughput.
func BenchmarkMultigetSimBatch16(b *testing.B) {
	cfg := stackmodel.Config{
		Core: cpu.CortexA7(), Cache: cache.L2MB2(),
		Mem: memmodel.MustDRAM3D(10 * sim.Nanosecond), CoresPerStack: 1,
	}
	var keyTPS float64
	for i := 0; i < b.N; i++ {
		st, err := stackmodel.NewStack(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := st.MeasureMultiget(16, 64, 30)
		if err != nil {
			b.Fatal(err)
		}
		keyTPS = res.StackTPS * 16
	}
	b.ReportMetric(keyTPS, "simKeysTPS")
}

// --- ablation: lock striping (Table 4 baselines) -------------------------

// benchContention drives parallel traffic — 90 % GetInto, 10 % Set, keys
// drawn Zipf 0.99, each goroutine on its own seed — at a store of the
// given shard count. It measures the store alone: lock contention and
// the store's own work, with no allocation, codec or socket in the
// loop. Run with -cpu 1,2 to see what a second core buys.
func benchContention(b *testing.B, shards int) {
	st := newBenchStore(b, shards)
	keys := preload(b, st, 65536, 64)
	zipf, err := workload.NewZipf(0.99, len(keys))
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 64) // the preloaded size: a set overwrites in place
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := sim.NewRand(seed.Add(1))
		buf := make([]byte, 0, 64)
		for pb.Next() {
			key := keys[zipf.Sample(rng)]
			if rng.Float64() < 0.9 {
				buf, _, _ = st.GetInto(buf[:0], key)
			} else {
				st.Set(key, value, 0, 0)
			}
		}
	})
}

// BenchmarkContentionGlobal is one shard: memcached 1.4's global lock.
func BenchmarkContentionGlobal(b *testing.B) { benchContention(b, 1) }

// BenchmarkContentionStriped is 16 shards: memcached 1.6's striping.
func BenchmarkContentionStriped(b *testing.B) { benchContention(b, 16) }

// --- ablation: stack design choices -------------------------------------

func benchStackTPS(b *testing.B, cfg stackmodel.Config, op stackmodel.Op, size int64) {
	b.Helper()
	var tps float64
	for i := 0; i < b.N; i++ {
		st, err := stackmodel.NewStack(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := st.Measure(op, size, 30)
		if err != nil {
			b.Fatal(err)
		}
		tps = res.StackTPS
	}
	b.ReportMetric(tps, "simTPS")
}

// BenchmarkAblationL2On / Off quantify §6.2's L2 trade at 10ns DRAM.
func BenchmarkAblationL2On(b *testing.B) {
	benchStackTPS(b, stackmodel.Config{
		Core: cpu.CortexA7(), Cache: cache.L2MB2(),
		Mem: memmodel.MustDRAM3D(10 * sim.Nanosecond), CoresPerStack: 1,
	}, stackmodel.Get, 64)
}

func BenchmarkAblationL2Off(b *testing.B) {
	benchStackTPS(b, stackmodel.Config{
		Core: cpu.CortexA7(), Cache: cache.None(),
		Mem: memmodel.MustDRAM3D(10 * sim.Nanosecond), CoresPerStack: 1,
	}, stackmodel.Get, 64)
}

// BenchmarkAblationPortSharing16 vs 32 quantifies the 2-cores-per-port
// decision (§5.3) under port-heavy 1MB flash streams.
func BenchmarkAblationPortSharing16(b *testing.B) {
	benchStackTPS(b, stackmodel.Config{
		Core: cpu.CortexA7(), Cache: cache.L2MB2(),
		Mem: memmodel.MustFlash3D(10*sim.Microsecond, 200*sim.Microsecond), CoresPerStack: 16,
	}, stackmodel.Get, 1<<20)
}

func BenchmarkAblationPortSharing32(b *testing.B) {
	benchStackTPS(b, stackmodel.Config{
		Core: cpu.CortexA7(), Cache: cache.L2MB2(),
		Mem: memmodel.MustFlash3D(10*sim.Microsecond, 200*sim.Microsecond), CoresPerStack: 32,
	}, stackmodel.Get, 1<<20)
}

// BenchmarkSimulatorEventThroughput measures raw kernel speed.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	s := sim.New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.After(sim.Nanosecond, tick)
		}
	}
	s.After(sim.Nanosecond, tick)
	b.ResetTimer()
	s.Run()
}

// BenchmarkZipfSample measures workload generation cost.
func BenchmarkZipfSample(b *testing.B) {
	z, err := workload.NewZipf(1.01, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRand(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample(rng)
	}
}

// BenchmarkDRAMSim regenerates the bank-level DRAM validation.
func BenchmarkDRAMSim(b *testing.B) { benchExperiment(b, "dramsim") }

// --- observability overhead (kv3d-obs) ----------------------------------

func benchServersimTraced(b *testing.B, traced bool) {
	b.Helper()
	cfg := serversim.Config{
		Stack: stackmodel.Config{
			Core: cpu.CortexA7(), Cache: cache.L2MB2(),
			Mem: memmodel.MustDRAM3D(10 * sim.Nanosecond), CoresPerStack: 8,
		},
		Stacks:     4,
		Op:         stackmodel.Get,
		ValueBytes: 64,
		OfferedTPS: 200_000,
		Duration:   10 * sim.Millisecond,
		Seed:       11,
	}
	for i := 0; i < b.N; i++ {
		if traced {
			cfg.Trace = obs.NewFlightRecorder[sim.Time]("kv3d", 0)
		}
		if _, err := serversim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerDisabled is the baseline: a serversim run with a nil
// tracer, exercising the nil-check fast path on every event. Compare
// against BenchmarkTracerEnabled to see the cost tracing adds, and
// against historical numbers of this benchmark to prove the
// instrumentation hooks cost ~nothing when disabled.
func BenchmarkTracerDisabled(b *testing.B) { benchServersimTraced(b, false) }

// BenchmarkTracerEnabled runs the same experiment with a live tracer
// recording request, queue/service and sampler events.
func BenchmarkTracerEnabled(b *testing.B) { benchServersimTraced(b, true) }

// --- the loopback bound under rtt_get ----------------------------------

// rttGetFrames are rtt_get's frame sizes: a 36 B binary GET of a 12 B
// key, answered by a 128 B reply carrying a 100 B value.
func rttGetFrames() (key string, req []byte, value []byte) {
	key = "key:00000001"
	req = append([]byte{protocol.MagicRequest, protocol.OpGet, 0, byte(len(key)), 0, 0, 0, 0, 0, 0, 0, byte(len(key)),
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, key...)
	return key, req, bytes.Repeat([]byte("v"), 100)
}

// roundTrips makes b.N closed-loop round trips of req over a loopback
// connection to addr, each reading a reply of replyLen bytes.
func roundTrips(b *testing.B, addr string, req []byte, replyLen int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	reply := make([]byte, replyLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackEcho is the floor BenchmarkLoopbackGet stands on:
// the same round trips against testutil.EchoServer, a goroutine per
// connection that answers each 36 B request with 128 B and parses
// nothing. The gap between the two is what kv3d's session, store and
// codec add per GET in one process; the rest is the loopback stack.
func BenchmarkLoopbackEcho(b *testing.B) {
	_, req, _ := rttGetFrames()
	roundTrips(b, testutil.EchoServer(b, len(req), make([]byte, 128)), req, 128)
}

// BenchmarkLoopbackGet makes rtt_get's round trips against a store
// served by protocol.ServeConnIdle, as kv3d-server serves a
// connection: a binary GET of a resident 100 B value per round trip.
func BenchmarkLoopbackGet(b *testing.B) {
	key, req, value := rttGetFrames()
	st, err := kvstore.New(kvstore.DefaultConfig(8 << 20))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Set(key, value, 0, 0); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = protocol.ServeConnIdle(st, conn, protocol.Env{}, 0)
			conn.Close()
		}
		served <- err
	}()
	roundTrips(b, ln.Addr().String(), req, 24+4+len(value))
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}
