package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrentRegisterAndSnapshot is the -race regression for
// the Registry's locking contract: the counters map is guarded by mu,
// while each Counter's value is a typed atomic. Concurrent first-use
// registration (the map write), reuse, increments and snapshots must
// all coexist.
func TestRegistryConcurrentRegisterAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		perW    = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Same names across workers: first-use registration and
				// reuse race on the counters map.
				r.Counter(fmt.Sprintf("c.%d", i%7)).Add(1)
			}
			// One name per worker: registration races snapshots alone.
			r.Counter(fmt.Sprintf("g.%d", w)).Add(int64(w))
		}(w)
	}
	snaps := make(chan struct{})
	go func() {
		defer close(snaps)
		for i := 0; i < 200; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-snaps

	var total float64
	for _, p := range r.Snapshot() {
		if len(p.Name) > 1 && p.Name[0] == 'c' {
			total += p.Value
		}
	}
	if want := float64(workers * perW); total != want {
		t.Fatalf("counters sum to %v, want %v", total, want)
	}
}
