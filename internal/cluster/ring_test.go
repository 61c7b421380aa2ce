package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptyRing(t *testing.T) {
	r := NewRing(0)
	if _, err := r.Locate("k"); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.LocateN("k", 2); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
	if r.Len() != 0 {
		t.Fatal("empty ring should have no nodes")
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := NewRing(0)
	r.Add("only")
	for i := 0; i < 100; i++ {
		node, err := r.Locate(fmt.Sprintf("key-%d", i))
		if err != nil || node != "only" {
			t.Fatalf("Locate = %q, %v", node, err)
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := NewRing(10)
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if got := len(r.points); got != 10 {
		t.Fatalf("points = %d, want 10", got)
	}
}

func TestRemove(t *testing.T) {
	r := NewRing(0)
	r.Add("a")
	r.Add("b")
	r.Remove("a")
	r.Remove("a") // idempotent
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := 0; i < 50; i++ {
		node, _ := r.Locate(fmt.Sprintf("key-%d", i))
		if node != "b" {
			t.Fatalf("key mapped to removed node %q", node)
		}
	}
}

// TestDeterministicMapping: two rings built from the same nodes place
// every key alike, whatever order the nodes were added in and however
// often one was added. Points are kept sorted by hash and Add is
// idempotent, so kv3d-server adds self and its -peers entries as given,
// with no sort or de-duplication, and every node still derives the
// same replica sets.
func TestDeterministicMapping(t *testing.T) {
	build := func(order ...int) *Ring {
		r := NewRing(0)
		for _, i := range order {
			r.Add(fmt.Sprintf("node-%d", i))
		}
		return r
	}
	a, b := build(0, 1, 2, 3, 4), build(0, 1, 2, 3, 4)
	permuted := build(3, 0, 4, 4, 1, 3, 2)
	if !reflect.DeepEqual(a.points, permuted.points) {
		t.Fatal("the permuted build's points differ from the in-order build's")
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		na, _ := a.Locate(key)
		nb, _ := b.Locate(key)
		if na != nb {
			t.Fatalf("mapping not deterministic for %s: %s vs %s", key, na, nb)
		}
		ownA, _ := a.LocateN(key, 3)
		ownP, _ := permuted.LocateN(key, 3)
		if !reflect.DeepEqual(ownA, ownP) {
			t.Fatalf("owners of %s depend on the order nodes were added: %v vs %v", key, ownA, ownP)
		}
	}
}

func TestBalance(t *testing.T) {
	// With 160 virtual nodes, 8 physical nodes and 20k keys, every node
	// should hold within ±35% of the fair share.
	r := NewRing(0)
	const nodes = 8
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	dist := r.Distribution(20000)
	fair := 20000.0 / nodes
	for node, n := range dist {
		if math.Abs(float64(n)-fair) > fair*0.35 {
			t.Errorf("node %s holds %d keys, fair share %.0f", node, n, fair)
		}
	}
	if len(dist) != nodes {
		t.Fatalf("only %d nodes received keys", len(dist))
	}
}

func TestWeightedNodesGetProportionalShare(t *testing.T) {
	r := NewRing(0)
	r.AddWeighted("big", 4)
	r.AddWeighted("small", 1)
	dist := r.Distribution(20000)
	ratio := float64(dist["big"]) / float64(dist["small"])
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("weight-4 node got ratio %.2f of weight-1 node, want ~4", ratio)
	}
}

func TestMinimalRemapOnNodeAddition(t *testing.T) {
	// Consistent hashing's defining property: adding a node remaps only
	// ~1/(n+1) of the keys.
	r := NewRing(0)
	for i := 0; i < 9; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	const keys = 10000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k], _ = r.Locate(k)
	}
	r.Add("node-9")
	moved := 0
	for k, prev := range before {
		cur, _ := r.Locate(k)
		if cur != prev {
			if cur != "node-9" {
				t.Fatalf("key %s moved between existing nodes %s -> %s", k, prev, cur)
			}
			moved++
		}
	}
	frac := float64(moved) / keys
	if frac > 0.20 {
		t.Fatalf("%.1f%% of keys moved on single-node add (want ~10%%)", frac*100)
	}
	if moved == 0 {
		t.Fatal("new node received no keys")
	}
}

func TestLocateN(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	nodes, err := r.LocateN("some-key", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("duplicate node %s in replica set", n)
		}
		seen[n] = true
	}
	// First replica must agree with Locate.
	first, _ := r.Locate("some-key")
	if nodes[0] != first {
		t.Fatalf("LocateN[0] = %s, Locate = %s", nodes[0], first)
	}
	// Asking for more replicas than nodes truncates.
	all, _ := r.LocateN("some-key", 50)
	if len(all) != 5 {
		t.Fatalf("LocateN(50) = %d nodes", len(all))
	}
}

func TestRemovalOnlyMovesVictimKeys(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 10; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	const keys = 5000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k], _ = r.Locate(k)
	}
	r.Remove("node-3")
	for k, prev := range before {
		cur, _ := r.Locate(k)
		if prev != "node-3" && cur != prev {
			t.Fatalf("key %s on surviving node moved %s -> %s", k, prev, cur)
		}
		if prev == "node-3" && cur == "node-3" {
			t.Fatalf("key %s still on removed node", k)
		}
	}
}

func TestLocateConsistencyProperty(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	f := func(key string) bool {
		a, err1 := r.Locate(key)
		b, err2 := r.Locate(key)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Distribution counts, for a sample of numKeys synthetic keys, how many
// land on each node — used to validate balance.
func (r *Ring) Distribution(numKeys int) map[string]int {
	out := make(map[string]int)
	for i := 0; i < numKeys; i++ {
		node, err := r.Locate(fmt.Sprintf("sample-key-%d", i))
		if err != nil {
			return out
		}
		out[node]++
	}
	return out
}
