package kvserver

import (
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// stepClock is a deterministic clock: every read advances it by 1µs,
// so each timed span records 1000ns per read it encloses.
type stepClock struct{ *clock.Fake }

func newStepClock() stepClock { return stepClock{clock.NewFake(0)} }

func (c stepClock) Now() sim.Ns {
	c.Advance(time.Microsecond)
	return c.Fake.Now()
}

// steppedStore is a store, and so a server, on a fresh stepClock.
func steppedStore(t *testing.T, memory int64) *kvstore.Store {
	t.Helper()
	cfg := kvstore.DefaultConfig(memory)
	cfg.Clock = newStepClock()
	st, err := kvstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func startMetricsServer(t *testing.T) (*Server, string) {
	t.Helper()
	testutil.CheckGoroutines(t)
	srv := NewWithOptions(steppedStore(t, 32<<20), nil, Options{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func TestMetricsEndpoint(t *testing.T) {
	srv, addr := startMetricsServer(t)
	c, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("missing"); err == nil {
		t.Fatal("expected miss")
	}

	rr := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(rr.Body)
	text := string(body)
	for _, want := range []string{
		"kv3d_live_store_cmd_set 1\n",
		"kv3d_live_store_get_hits 1\n",
		"kv3d_live_store_get_misses 1\n",
		"kv3d_live_server_conns_accepted 1\n",
		"kv3d_live_op_get_latency_ns_count 2\n",
		"kv3d_live_op_store_latency_ns_count 1\n",
		"# TYPE kv3d_live_store_curr_items gauge\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	// Slab occupancy for the class holding the one stored item.
	if !strings.Contains(text, "_used_chunks 1\n") {
		t.Errorf("no slab class shows a used chunk:\n%s", text)
	}
}

func TestMetricsProbesSorted(t *testing.T) {
	srv, _ := startMetricsServer(t)
	probes := srv.Probes()
	for i := 1; i < len(probes); i++ {
		if probes[i-1].Name >= probes[i].Name {
			t.Fatalf("probes not strictly sorted: %q before %q",
				probes[i-1].Name, probes[i].Name)
		}
	}
}

// TestRuntimeProbesReadAtScrape: the live.runtime.* gauges come from
// one runtime/metrics read per scrape, so they are there on a server
// that never started anything, and a scrape leaves no goroutine behind.
func TestRuntimeProbesReadAtScrape(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := NewWithOptions(steppedStore(t, 32<<20), nil, Options{})
	defer srv.Close()
	var names []string
	have := map[string]float64{}
	for _, p := range srv.Probes() {
		if strings.HasPrefix(p.Name, "live.runtime.") {
			names = append(names, strings.TrimPrefix(p.Name, "live.runtime."))
			have[p.Name] = p.Value
		}
	}
	want := []string{
		"gc_cycles",
		"gc_pause_ns.max", "gc_pause_ns.p50", "gc_pause_ns.p99",
		"goroutines", "heap_alloc_bytes", "heap_objects", "next_gc_bytes",
		"sched_latency_ns.max", "sched_latency_ns.p50", "sched_latency_ns.p99",
		"stack_inuse_bytes",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("live.runtime probes %v, want %v", names, want)
	}
	if have["live.runtime.goroutines"] < 1 || have["live.runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime gauges not read: %v", have)
	}
}

// TestQuantileNs reads runtime histograms the way metrics.Histogram
// reports percentiles: the lower bound of the bucket holding the rank,
// in nanoseconds, with the runtime's -Inf underflow bound read as 0.
func TestQuantileNs(t *testing.T) {
	h := &rtmetrics.Float64Histogram{
		Buckets: []float64{math.Inf(-1), 0, 1e-6, 1e-3, math.Inf(1)},
		Counts:  []uint64{0, 50, 49, 1},
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 0}, {0.99, 1000}, {1, 1e6}} {
		if got := quantileNs(h, c.q); got != c.want {
			t.Errorf("quantile %v = %v ns, want %v", c.q, got, c.want)
		}
	}
	h.Counts = []uint64{0, 0, 0, 0}
	if got := quantileNs(h, 1); got != 0 {
		t.Errorf("empty histogram max = %v, want 0", got)
	}
	h.Counts = []uint64{3, 0, 0, 0}
	if got := quantileNs(h, 0.5); got != 0 {
		t.Errorf("underflow bucket p50 = %v, want 0", got)
	}
}

func TestOpMetricsDeterministicWithFakeClock(t *testing.T) {
	m := NewOpMetrics()
	clk := newStepClock()
	for i := 0; i < 5; i++ {
		start := clk.Now()
		m.ObserveOp(protocol.ClassGet, protocol.OutcomeOK, 1, clk.Now()-start)
	}
	probes := m.Probes()
	if got := probeValue(probes, "live.op.get.latency_ns.count"); got != 5 {
		t.Fatalf("count = %v", got)
	}
	if got := probeValue(probes, "live.op.get.latency_ns.mean"); got != 1000 {
		t.Fatalf("mean = %v, want exactly 1000 from the fake clock", got)
	}
	// Out-of-range classes fold into "other" rather than panicking, and
	// out-of-range outcomes fold into "error".
	m.ObserveOp(protocol.OpClass(99), protocol.Outcome(99), 1, 5)
	probes = m.Probes()
	if got := probeValue(probes, "live.op.other.latency_ns.count"); got != 1 {
		t.Fatalf("other count = %v", got)
	}
	if got := probeValue(probes, "live.op.other.error.latency_ns.count"); got != 1 {
		t.Fatalf("other/error count = %v", got)
	}
	// The aggregate keeps counting across outcomes.
	m.ObserveOp(protocol.ClassGet, protocol.OutcomeError, 1, 7)
	probes = m.Probes()
	if got := probeValue(probes, "live.op.get.latency_ns.count"); got != 6 {
		t.Fatalf("get aggregate count = %v, want 6 (5 ok + 1 error)", got)
	}
	if got := probeValue(probes, "live.op.get.error.latency_ns.count"); got != 1 {
		t.Fatalf("get error count = %v", got)
	}
	// A run of 16 gets observed in one call is 16 samples whose sum is
	// the run's time.
	m.ObserveOp(protocol.ClassGet, protocol.OutcomeOK, 16, 1000)
	probes = m.Probes()
	if got := probeValue(probes, "live.op.get.ok.latency_ns.count"); got != 21 {
		t.Fatalf("get ok count = %v after a 16-op run, want 21", got)
	}
	if got := probeValue(probes, "live.op.get.ok.latency_ns.mean"); got != 6000.0/21 {
		t.Fatalf("get ok mean = %v, want %v: the run's 1000 ns over its 16 ops plus 5 ops of 1000", got, 6000.0/21)
	}
}

// probeValue returns the named probe's value in a snapshot, 0 when the
// snapshot has no such probe.
func probeValue(probes []obs.Probe, name string) float64 {
	for _, p := range probes {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}
