package kvserver

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"kv3d/internal/metrics"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// RejectReason classifies refused work: connections turned away at the
// accept loop and requests shed by the in-flight gate.
type RejectReason int

const (
	// RejectMaxConns is an accept refused by the connection cap.
	RejectMaxConns RejectReason = iota
	// RejectBusy is a request shed by the in-flight cap.
	RejectBusy
	// RejectDraining is an accept refused during graceful shutdown.
	RejectDraining

	numRejectReasons
)

func (r RejectReason) String() string {
	switch r {
	case RejectMaxConns:
		return "max_conns"
	case RejectBusy:
		return "busy"
	case RejectDraining:
		return "draining"
	}
	return "unknown"
}

// OpMetrics aggregates per-operation-class latency histograms across
// all connections (TCP ASCII, TCP binary, UDP), split by outcome
// (ok / error / busy) so load-shed responses appear in latency
// accounting instead of vanishing, plus rejection counters. It
// implements protocol.Observer; sessions call ObserveOp from their
// connection goroutines, so the histograms sit behind a mutex (the
// reject counters are atomic and lock-free).
type OpMetrics struct {
	mu      sync.Mutex
	hists   [protocol.NumOpClasses][protocol.NumOutcomes]*metrics.Histogram //kv3d:guardedby mu
	rejects [numRejectReasons]atomic.Uint64
}

// Reject counts one refusal.
func (m *OpMetrics) Reject(r RejectReason) {
	if r < 0 || r >= numRejectReasons {
		return
	}
	m.rejects[r].Add(1) //nolint:kv3d -- rejects is an atomic counter array, deliberately lock-free (hot shed path)
}

// Rejects reports the refusal count for one reason.
func (m *OpMetrics) Rejects(r RejectReason) uint64 {
	if r < 0 || r >= numRejectReasons {
		return 0
	}
	return m.rejects[r].Load() //nolint:kv3d -- rejects is an atomic counter array, deliberately lock-free (hot shed path)
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

// ObserveOp records one command's handling time in nanoseconds under
// its outcome.
func (m *OpMetrics) ObserveOp(c protocol.OpClass, o protocol.Outcome, nanos sim.Ns) {
	if c < 0 || c >= protocol.NumOpClasses {
		c = protocol.ClassOther
	}
	if o < 0 || o >= protocol.NumOutcomes {
		o = protocol.OutcomeError
	}
	m.mu.Lock()
	m.hists[c][o].Record(int64(nanos))
	m.mu.Unlock()
}

// Summary snapshots one class's histogram aggregated across outcomes
// (the pre-outcome-split view; existing dashboards keep working).
func (m *OpMetrics) Summary(c protocol.OpClass) metrics.Summary {
	if c < 0 || c >= protocol.NumOpClasses {
		c = protocol.ClassOther
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aggregateLocked(c).Summarize()
}

// OutcomeSummary snapshots one (class, outcome) histogram.
func (m *OpMetrics) OutcomeSummary(c protocol.OpClass, o protocol.Outcome) metrics.Summary {
	if c < 0 || c >= protocol.NumOpClasses {
		c = protocol.ClassOther
	}
	if o < 0 || o >= protocol.NumOutcomes {
		o = protocol.OutcomeError
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hists[c][o].Summarize()
}

// aggregateLocked merges one class's outcome histograms. Caller holds mu.
func (m *OpMetrics) aggregateLocked(c protocol.OpClass) *metrics.Histogram {
	agg := metrics.NewHistogram()
	for o := range m.hists[c] {
		agg.Merge(m.hists[c][o])
	}
	return agg
}

// Probes exports per-class latency summaries under the obs naming
// scheme: live.op.<class>.latency_ns.* aggregates all outcomes
// (preserving the pre-split names), and live.op.<class>.<outcome>.latency_ns.*
// breaks them out. Classes and outcomes with no recorded operations
// are skipped so the endpoint stays compact.
func (m *OpMetrics) Probes() []obs.Probe {
	m.mu.Lock()
	defer m.mu.Unlock()
	var probes []obs.Probe
	for c := protocol.OpClass(0); c < protocol.NumOpClasses; c++ {
		s := m.aggregateLocked(c).Summarize()
		if s.Count == 0 {
			continue
		}
		probes = append(probes,
			obs.SummaryProbes("live.op."+c.String()+".latency_ns", s)...)
		for o := protocol.Outcome(0); o < protocol.NumOutcomes; o++ {
			os := m.hists[c][o].Summarize()
			if os.Count == 0 {
				continue
			}
			probes = append(probes,
				obs.SummaryProbes("live.op."+c.String()+"."+o.String()+".latency_ns", os)...)
		}
	}
	for r := RejectReason(0); r < numRejectReasons; r++ {
		if n := m.rejects[r].Load(); n > 0 {
			probes = append(probes, obs.Probe{
				Name: "live.server.rejected." + r.String(), Value: float64(n)})
		}
	}
	return probes
}

// Probes snapshots the server's live counters — store statistics, slab
// class occupancy, connection accounting, and per-op latency summaries
// — under the same dotted naming scheme the simulator's probe registry
// uses. The slice is sorted by name so the metrics endpoint renders
// deterministically for a given state.
func (s *Server) Probes() []obs.Probe {
	st := s.store.Stats()
	probes := []obs.Probe{
		{Name: "live.server.conns_accepted", Value: float64(s.Accepted())},
		{Name: "live.server.conns_rejected", Value: float64(s.Rejected())},
		{Name: "live.server.conns_active", Value: float64(s.Active())},
		{Name: "live.server.metrics_write_errors", Value: float64(s.MetricsWriteErrors())},
		{Name: "live.store.get_hits", Value: float64(st.GetHits)},
		{Name: "live.store.get_misses", Value: float64(st.GetMisses)},
		{Name: "live.store.sets", Value: float64(st.Sets)},
		{Name: "live.store.delete_hits", Value: float64(st.DeleteHits)},
		{Name: "live.store.delete_misses", Value: float64(st.DeleteMisses)},
		{Name: "live.store.cas_hits", Value: float64(st.CasHits)},
		{Name: "live.store.cas_misses", Value: float64(st.CasMisses)},
		{Name: "live.store.cas_badval", Value: float64(st.CasBadval)},
		{Name: "live.store.incr_hits", Value: float64(st.IncrHits)},
		{Name: "live.store.incr_misses", Value: float64(st.IncrMisses)},
		{Name: "live.store.decr_hits", Value: float64(st.DecrHits)},
		{Name: "live.store.decr_misses", Value: float64(st.DecrMisses)},
		{Name: "live.store.touch_hits", Value: float64(st.TouchHits)},
		{Name: "live.store.touch_misses", Value: float64(st.TouchMisses)},
		{Name: "live.store.evictions", Value: float64(st.Evictions)},
		{Name: "live.store.expired", Value: float64(st.Expired)},
		{Name: "live.store.slab_reassigns", Value: float64(st.SlabReassigns)},
		{Name: "live.store.total_items", Value: float64(st.TotalItems)},
		{Name: "live.store.curr_items", Value: float64(st.CurrItems)},
		{Name: "live.store.bytes_used", Value: float64(st.BytesUsed)},
		{Name: "live.store.slab_bytes", Value: float64(st.SlabBytes)},
		{Name: "live.store.hit_rate", Value: st.HitRate()},
	}
	for _, c := range s.store.SlabStats() {
		prefix := fmt.Sprintf("live.slab.class-%02d.", c.ClassID)
		probes = append(probes,
			obs.Probe{Name: prefix + "chunk_size", Value: float64(c.ChunkSize)},
			obs.Probe{Name: prefix + "pages", Value: float64(c.Pages)},
			obs.Probe{Name: prefix + "used_chunks", Value: float64(c.UsedChunks)},
			obs.Probe{Name: prefix + "free_chunks", Value: float64(c.FreeChunks)},
		)
	}
	probes = append(probes, s.ops.Probes()...)
	probes = append(probes, s.Telemetry().Probes()...)
	if rp, ok := s.sessionEnv().Repl.(*Replicator); ok && rp != nil {
		probes = append(probes, rp.Probes()...)
	}
	if s.opts.Migrator != nil {
		probes = append(probes, s.opts.Migrator.Probes()...)
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].Name < probes[j].Name })
	return probes
}

// OpMetrics exposes the per-op latency aggregator (for tests and
// tools that want summaries rather than the rendered endpoint).
func (s *Server) OpMetrics() *OpMetrics { return s.ops }

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

// MetricsWriteErrors reports /metrics responses that failed mid-write.
func (s *Server) MetricsWriteErrors() uint64 { return s.metricsWriteErrors.Load() }
