package cluster

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentLocateAndChurn exercises the ring's locking, which
// makes it safe for concurrent use: readers routing keys while writers
// add and remove nodes. Run under -race (CI does); the
// assertions here only pin liveness and basic sanity.
func TestConcurrentLocateAndChurn(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	const (
		readers = 8
		ops     = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i)
				if node, err := r.Locate(key); err == nil && node == "" {
					t.Error("Locate returned an empty node without error")
					return
				}
				if nodes, err := r.LocateN(key, 2); err == nil {
					if len(nodes) == 0 {
						t.Error("LocateN returned no nodes without error")
						return
					}
					seen := map[string]bool{}
					for _, n := range nodes {
						if seen[n] {
							t.Errorf("LocateN returned duplicate %q", n)
							return
						}
						seen[n] = true
					}
				}
				_ = r.Nodes()
				_ = r.Len()
			}
		}(g)
	}
	// Two writers churn the node set: one flaps node-3, one flaps a node
	// that was never in the initial set.
	for w, name := range []string{"node-3", "node-9"} {
		wg.Add(1)
		go func(w int, name string) {
			defer wg.Done()
			for i := 0; i < ops/4; i++ {
				r.Remove(name)
				r.Add(name)
			}
		}(w, name)
	}
	wg.Wait()
	// node-0..2 never left; the flapped nodes ended on an Add.
	if r.Len() != 5 {
		t.Fatalf("ring has %d nodes after churn, want 5", r.Len())
	}
	if _, err := r.Locate("final"); err != nil {
		t.Fatalf("Locate after churn: %v", err)
	}
}
