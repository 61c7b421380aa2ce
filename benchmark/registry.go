package main

import (
	"kv3d/internal/workload"
)

// A spec is one workload: the traffic mix and the store it runs against.
// Why each exists is recorded beside its name in BENCHMARK.json and in
// README.md; the fields here are what the program needs to build it.
type spec struct {
	name string
	// binary selects kvclient.BinaryClient; otherwise the ASCII Client.
	binary bool
	// burst is the keys per client call: 1 is a Get (or Set), more is a
	// GetMulti of that many distinct keys.
	burst int
	// keys is the key-space size; zipf the popularity skew (0 = uniform).
	keys int
	zipf float64
	// setShare is the fraction of calls that are sets.
	setShare float64
	// sizes draws value lengths; every length is clamped to maxValue and
	// raised to the value header's length.
	sizes    workload.ValueSizer
	maxValue int
	// memoryMiB is the server's -memory flag. fits says the whole key space
	// stays resident, which the run then checks (hit ratio exactly 1).
	memoryMiB int
	fits      bool
	// callsPerSec is a generous per-connection call rate used only to
	// size the pre-generated stream; a stream that runs out wraps.
	callsPerSec int
	// traceOps is how many ops of connection 0's stream the ladder replays.
	traceOps int
}

var specs = []spec{
	{
		name: "rtt_get", binary: true, burst: 1,
		keys: 500_000, zipf: 0.99,
		sizes: workload.FixedSize(100), maxValue: 100,
		memoryMiB: 1024, fits: true,
		callsPerSec: 100_000, traceOps: 50_000,
	},
	{
		name: "pipe_mget", binary: true, burst: 16,
		keys: 500_000, zipf: 0.99,
		sizes: workload.FixedSize(100), maxValue: 100,
		memoryMiB: 1024, fits: true,
		callsPerSec: 12_000, traceOps: 200_000,
	},
	{
		name: "etc_mixed", binary: false, burst: 1,
		keys: 200_000, zipf: 0.99, setShare: 0.30,
		sizes: workload.ETCSizes{}, maxValue: 64 << 10,
		memoryMiB: 256, fits: false,
		callsPerSec: 100_000, traceOps: 50_000,
	},
	{
		name: "photo_get", binary: true, burst: 1,
		keys: 4_000, zipf: 0,
		sizes: workload.McDipperSizes{}, maxValue: 512 << 10,
		memoryMiB: 1024, fits: true,
		callsPerSec: 30_000, traceOps: 2_000,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// A metricDef names one printed metric. BENCHMARK.json carries the same
// names, units and directions (plus the bounds, which live only there);
// -check fails when the two disagree.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the server sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_sec", "1/s", "higher"},
	{"goodput_mib_per_sec", "MiB/s", "higher"},
	{"p50_us", "us", "lower"},
	{"hit_ratio", "ratio", "higher"},
	{"server_cpu_us_per_op", "us", "lower"},
	{"server_peak_rss_mib", "MiB", "lower"},
}

// perLayer is one module's share, from the traced run. README.md says
// which end-to-end metric each should move, and on which workload.
var perLayer = []metricDef{
	{"kvstore.ns_per_op", "ns", "lower"},
	{"kvstore.allocs_per_op", "count", "lower"},
	{"kvstore.hit_ratio", "ratio", "higher"},
	{"kvstore.evictions_per_set", "ratio", "lower"},
	{"kvstore.bytes_per_item", "B", "lower"},
	{"kvstore.items_per_mib", "count", "higher"},
	{"protocol.self_ns_per_op", "ns", "lower"},
	{"protocol.allocs_per_op", "count", "lower"},
	{"protocol.req_bytes_per_op", "B", "lower"},
	{"protocol.resp_bytes_per_op", "B", "lower"},
	{"kvserver.self_ns_per_op", "ns", "lower"},
	{"kvserver.allocs_per_op", "count", "lower"},
	{"kvserver.reads_per_op", "count", "lower"},
	{"kvserver.writes_per_op", "count", "lower"},
	{"kvserver.user_us_per_op", "us", "lower"},
	{"kvserver.sys_us_per_op", "us", "lower"},
	{"kvserver.ctx_switches_per_op", "count", "lower"},
	{"kvclient.self_ns_per_op", "ns", "lower"},
	{"kvclient.allocs_per_op", "count", "lower"},
	{"kvclient.cpu_us_per_op", "us", "lower"},
	{"ladder.loopback_ns_per_op", "ns", "lower"},
	{"ladder.e2e1_ns_per_op", "ns", "lower"},
	{"ladder.residual_ns_per_op", "ns", "lower"},
	{"ladder.residual_share", "ratio", "lower"},
	{"loadgen.p99_us", "us", "lower"},
	{"loadgen.slice_spread", "ratio", "lower"},
}
