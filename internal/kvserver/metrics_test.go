package kvserver

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"kv3d/internal/kvclient"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// fakeNanos is a deterministic clock: every read advances by 1µs, so
// each timed operation records exactly 1000ns.
func fakeNanos() func() sim.Ns {
	var n atomic.Int64
	return func() sim.Ns { return sim.Ns(n.Add(1000)) }
}

func startMetricsServer(t *testing.T) (*Server, string) {
	t.Helper()
	testutil.CheckGoroutines(t)
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{NowNanos: fakeNanos()})
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
		"kv3d_live_store_sets 1\n",
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

func TestOpMetricsDeterministicWithFakeClock(t *testing.T) {
	m := NewOpMetrics()
	clock := fakeNanos()
	for i := 0; i < 5; i++ {
		start := clock()
		m.ObserveOp(protocol.ClassGet, protocol.OutcomeOK, clock()-start)
	}
	s := m.Summary(protocol.ClassGet)
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean != 1000 {
		t.Fatalf("mean = %v, want exactly 1000 from the fake clock", s.Mean)
	}
	// Out-of-range classes fold into "other" rather than panicking, and
	// out-of-range outcomes fold into "error".
	m.ObserveOp(protocol.OpClass(99), protocol.Outcome(99), 5)
	if got := m.Summary(protocol.OpClass(-1)).Count; got != 1 {
		t.Fatalf("other count = %d", got)
	}
	if got := m.OutcomeSummary(protocol.ClassOther, protocol.OutcomeError).Count; got != 1 {
		t.Fatalf("other/error count = %d", got)
	}
	// The aggregate keeps counting across outcomes.
	m.ObserveOp(protocol.ClassGet, protocol.OutcomeBusy, 7)
	if got := m.Summary(protocol.ClassGet).Count; got != 6 {
		t.Fatalf("get aggregate count = %d, want 6 (5 ok + 1 busy)", got)
	}
	if got := m.OutcomeSummary(protocol.ClassGet, protocol.OutcomeBusy).Count; got != 1 {
		t.Fatalf("get busy count = %d", got)
	}
}

func TestUDPObserverWired(t *testing.T) {
	srv, _ := startMetricsServer(t)
	u, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	udpAsk(t, u, "get k\r\n")
	if got := srv.ops.Summary(protocol.ClassGet).Count; got != 1 {
		t.Fatalf("a UDP get left %d gets in the TCP server's op metrics, want 1", got)
	}
}
