package kvserver

import (
	"sync"
	"testing"

	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// TestOpMetricsConcurrentObserveRejectSnapshot is the -race regression
// for the OpMetrics locking contract: hists sits behind mu while the
// reject counter is a lock-free atomic. Observers, rejecters, and
// scrapes hammer one aggregator from separate goroutines; the race
// detector proves the split discipline holds (including the summaries
// a scrape computes from its copies outside mu), and the final counts
// prove nothing was lost to it.
func TestOpMetricsConcurrentObserveRejectSnapshot(t *testing.T) {
	m := NewOpMetrics()
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				m.ObserveOp(protocol.OpClass(i%int(protocol.NumOpClasses)), protocol.Outcome(i%int(protocol.NumOutcomes)), 1, sim.Ns(100+i))
				m.rejected.Add(1)
			}
		}(w)
	}
	// Scrapes overlap the writers: Probes copies the histograms under mu
	// and summarizes the copies after releasing it, and reads the reject
	// atomics.
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for i := 0; i < 200; i++ {
			_ = m.Probes()
		}
	}()
	wg.Wait()
	<-readers

	probes := m.Probes()
	var observed float64
	for c := protocol.OpClass(0); c < protocol.NumOpClasses; c++ {
		observed += probeValue(probes, "live.op."+c.String()+".latency_ns.count")
	}
	if want := float64(workers * perW); observed != want {
		t.Fatalf("observed %v ops across classes, want %v", observed, want)
	}
	if rejected, want := probeValue(probes, "live.server.rejected.max_conns"), float64(workers*perW); rejected != want {
		t.Fatalf("counted %v rejects, want %v", rejected, want)
	}
}
