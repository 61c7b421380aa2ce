package cluster

import (
	"fmt"
	"sync"
	"testing"
)

func TestMembershipJoinLeaveVersions(t *testing.T) {
	m := NewMembership(32)
	if v := m.Version(); v != 0 {
		t.Fatalf("fresh membership version = %d, want 0", v)
	}
	d1 := m.Join("a", 1)
	if d1.Version != 1 || len(d1.Joined) != 1 || d1.Joined[0] != "a" {
		t.Fatalf("join delta = %+v", d1)
	}
	d2 := m.Join("b", 2)
	if d2.Version != 2 {
		t.Fatalf("second join version = %d, want 2", d2.Version)
	}
	// Idempotent join: no version bump, no changes.
	d3 := m.Join("a", 1)
	if d3.Version != 2 || d3.Joined != nil || d3.Left != nil {
		t.Fatalf("re-join delta = %+v, want no-op at version 2", d3)
	}
	d4 := m.Leave("a")
	if d4.Version != 3 || len(d4.Left) != 1 || d4.Left[0] != "a" {
		t.Fatalf("leave delta = %+v", d4)
	}
	if m.Contains("a") {
		t.Fatal("a still a member after leave")
	}
	// Idempotent leave.
	d5 := m.Leave("a")
	if d5.Version != 3 || d5.Left != nil {
		t.Fatalf("re-leave delta = %+v, want no-op at version 3", d5)
	}
	if m.Len() != 1 {
		t.Fatalf("member count = %d, want 1", m.Len())
	}
}

func TestMembershipEpochsTrackRejoin(t *testing.T) {
	m := NewMembership(32)
	m.Join("a", 1) // version 1
	m.Join("b", 1) // version 2
	v := m.View()
	if v.Epochs["a"] != 1 || v.Epochs["b"] != 2 {
		t.Fatalf("epochs = %v, want a:1 b:2", v.Epochs)
	}
	m.Leave("a")   // version 3
	m.Join("a", 1) // version 4: rejoin gets a fresh epoch
	v = m.View()
	if v.Epochs["a"] != 4 {
		t.Fatalf("rejoined epoch = %d, want 4", v.Epochs["a"])
	}
	if v.Version != 4 {
		t.Fatalf("version = %d, want 4", v.Version)
	}
}

func TestMembershipViewEqualAndIndependence(t *testing.T) {
	m1 := NewMembership(32)
	m2 := NewMembership(32)
	for _, n := range []string{"a", "b", "c"} {
		m1.Join(n, 1)
		m2.Join(n, 1)
	}
	if !m1.View().Equal(m2.View()) {
		t.Fatal("same join sequence produced unequal views")
	}
	m2.Leave("c")
	if m1.View().Equal(m2.View()) {
		t.Fatal("diverged memberships compare equal")
	}
	// A snapshot must not alias internal state.
	v := m1.View()
	v.Epochs["a"] = 99
	if m1.View().Epochs["a"] == 99 {
		t.Fatal("View aliases internal epoch map")
	}
}

// TestMembershipConcurrentChurn drives joins and leaves from many
// goroutines; the deltas Join and Leave return must carry unique
// versions that strictly account for every applied transition (run
// under -race in CI).
func TestMembershipConcurrentChurn(t *testing.T) {
	m := NewMembership(16)
	deltas := make([][]Delta, 4)
	var wg sync.WaitGroup
	for w := range deltas {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				node := fmt.Sprintf("n%d-%d", w, i)
				deltas[w] = append(deltas[w], m.Join(node, 1))
				if i%2 == 0 {
					deltas[w] = append(deltas[w], m.Leave(node))
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ds := range deltas {
		for _, d := range ds {
			if seen[d.Version] {
				t.Errorf("version %d returned twice", d.Version)
			}
			seen[d.Version] = true
		}
	}
	// 4 workers x (50 joins + 25 leaves) = 300 versions.
	if v := m.Version(); v != 300 {
		t.Fatalf("final version = %d, want 300", v)
	}
	if len(seen) != 300 {
		t.Fatalf("deltas carry %d distinct versions, want 300", len(seen))
	}
}
