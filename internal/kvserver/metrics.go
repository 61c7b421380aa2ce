package kvserver

import (
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kv3d/internal/metrics"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// OpMetrics aggregates per-operation-class latency histograms across
// all connections (ASCII and binary), split by outcome (ok / error),
// plus the count of connections turned away by Options.MaxConns. It
// implements protocol.Observer; sessions call ObserveOp from their
// connection goroutines, so the histograms sit behind a mutex (the
// reject counter is atomic, bumped by the accept loop without it).
type OpMetrics struct {
	mu       sync.Mutex
	hists    [protocol.NumOpClasses][protocol.NumOutcomes]*metrics.Histogram // guarded by mu
	rejected atomic.Uint64
}

// NewOpMetrics allocates histograms for every operation class and
// outcome.
func NewOpMetrics() *OpMetrics {
	m := &OpMetrics{}
	for c := range m.hists {
		for o := range m.hists[c] {
			m.hists[c][o] = metrics.NewHistogram()
		}
	}
	return m
}

// ObserveOp records n commands that together took nanos under their
// class and outcome: n samples that sum to nanos, under one lock, so a
// pipelined run of gets or stores takes the mutex once rather than once
// a frame.
func (m *OpMetrics) ObserveOp(c protocol.OpClass, o protocol.Outcome, n int, nanos sim.Ns) {
	if c < 0 || c >= protocol.NumOpClasses {
		c = protocol.ClassOther
	}
	if o < 0 || o >= protocol.NumOutcomes {
		o = protocol.OutcomeError
	}
	m.mu.Lock()
	m.hists[c][o].RecordN(n, int64(nanos))
	m.mu.Unlock()
}

// Probes exports per-class latency summaries under the obs naming
// scheme: live.op.<class>.latency_ns.* aggregates all outcomes, and
// live.op.<class>.<outcome>.latency_ns.* breaks them out. Classes and
// outcomes with no recorded operations are skipped so the endpoint
// stays compact. The histograms are copied under mu and summarized
// after it is released: a scrape holds up the sessions' ObserveOp for
// the copy only, not for the merges and percentile walks.
func (m *OpMetrics) Probes() []obs.Probe {
	var snap [protocol.NumOpClasses][protocol.NumOutcomes]metrics.Histogram
	m.mu.Lock()
	for c := range m.hists {
		for o, h := range m.hists[c] {
			if h.Count() > 0 {
				snap[c][o] = *h
			}
		}
	}
	m.mu.Unlock()
	var probes []obs.Probe
	for c := protocol.OpClass(0); c < protocol.NumOpClasses; c++ {
		agg := metrics.NewHistogram()
		for o := range snap[c] {
			agg.Merge(&snap[c][o])
		}
		if agg.Count() == 0 {
			continue
		}
		probes = append(probes,
			obs.SummaryProbes("live.op."+c.String()+".latency_ns", agg.Summarize())...)
		for o := protocol.Outcome(0); o < protocol.NumOutcomes; o++ {
			if h := &snap[c][o]; h.Count() > 0 {
				probes = append(probes,
					obs.SummaryProbes("live.op."+c.String()+"."+o.String()+".latency_ns", h.Summarize())...)
			}
		}
	}
	if n := m.rejected.Load(); n > 0 {
		probes = append(probes, obs.Probe{Name: "live.server.rejected.max_conns", Value: float64(n)})
	}
	return probes
}

// Probes renders the server's live state as one snapshot, sorted by
// name so the metrics endpoint is deterministic for a given state:
// connection accounting; the store's counters and slab classes from one
// Stats pass, named by the rows of the stats and stats slabs commands
// (live.store.<stat>, live.slab.class-NN.<field>, live.slab.<total>);
// per-op latency summaries; Go runtime gauges read now; and the flight
// recorder's and replicator's counters when the server has them.
func (s *Server) Probes() []obs.Probe {
	probes := []obs.Probe{
		{Name: "live.server.conns_accepted", Value: float64(s.Accepted())},
		{Name: "live.server.conns_active", Value: float64(s.Active())},
		{Name: "live.server.metrics_write_errors", Value: float64(s.metricsWriteErrors.Load())},
	}
	st := s.store.Stats()
	probes = appendStatRows(probes, "live.store.", protocol.StatRows(st))
	probes = appendStatRows(probes, "live.slab.", protocol.SlabRows(st))
	probes = append(probes, s.ops.Probes()...)
	probes = append(probes, runtimeProbes()...)
	if s.flight != nil {
		probes = append(probes, obs.Probe{Name: "live.flight.dropped", Value: float64(s.flight.rec.Dropped())})
	}
	if rp, ok := s.sessionEnv().Repl.(*Replicator); ok && rp != nil {
		probes = append(probes, rp.Probes()...)
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].Name < probes[j].Name })
	return probes
}

// appendStatRows adds each numeric stats row as prefix+name (the
// version string is not a number and is left out); a per-class
// "N:field" row becomes class-NN.field.
func appendStatRows(probes []obs.Probe, prefix string, rows [][2]string) []obs.Probe {
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			continue
		}
		name := row[0]
		if id, field, ok := strings.Cut(name, ":"); ok {
			if len(id) == 1 {
				id = "0" + id
			}
			name = "class-" + id + "." + field
		}
		probes = append(probes, obs.Probe{Name: prefix + name, Value: v})
	}
	return probes
}

// runtimeMetrics are the Go runtime gauges a scrape reads, by probe
// name: one runtime/metrics.Read per scrape, no stop-the-world. The two
// latency distributions are summarized as .p50, .p99 and .max.
var runtimeMetrics = []struct{ probe, metric string }{
	{"live.runtime.heap_alloc_bytes", "/memory/classes/heap/objects:bytes"},
	{"live.runtime.heap_objects", "/gc/heap/objects:objects"},
	{"live.runtime.stack_inuse_bytes", "/memory/classes/heap/stacks:bytes"},
	{"live.runtime.next_gc_bytes", "/gc/heap/goal:bytes"},
	{"live.runtime.gc_cycles", "/gc/cycles/total:gc-cycles"},
	{"live.runtime.goroutines", "/sched/goroutines:goroutines"},
	{"live.runtime.gc_pause_ns", "/sched/pauses/total/gc:seconds"},
	{"live.runtime.sched_latency_ns", "/sched/latencies:seconds"},
}

func runtimeProbes() []obs.Probe {
	samples := make([]rtmetrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		samples[i].Name = m.metric
	}
	rtmetrics.Read(samples)
	var probes []obs.Probe
	for i, sm := range samples {
		name := runtimeMetrics[i].probe
		switch sm.Value.Kind() {
		case rtmetrics.KindUint64:
			probes = append(probes, obs.Probe{Name: name, Value: float64(sm.Value.Uint64())})
		case rtmetrics.KindFloat64Histogram:
			h := sm.Value.Float64Histogram()
			probes = append(probes,
				obs.Probe{Name: name + ".p50", Value: quantileNs(h, 0.50)},
				obs.Probe{Name: name + ".p99", Value: quantileNs(h, 0.99)},
				obs.Probe{Name: name + ".max", Value: quantileNs(h, 1)})
		}
	}
	return probes
}

// quantileNs reads quantile q of a runtime histogram in seconds as
// nanoseconds: the lower bound of the bucket holding it, as
// metrics.Histogram reports percentiles; q = 1 is the highest non-empty
// bucket, and an empty histogram reads 0.
func quantileNs(h *rtmetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if c > 0 && seen >= rank {
			return max(h.Buckets[i], 0) * 1e9
		}
	}
	return 0
}

// MetricsHandler serves the server's probes in Prometheus text
// exposition format. Mount it on any mux, e.g.
//
//	http.Handle("/metrics", srv.MetricsHandler())
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, s.Probes()); err != nil {
			// Too late for an HTTP status (the body started); count the
			// truncated scrape so it is visible on the next one.
			s.metricsWriteErrors.Add(1)
		}
	})
}
