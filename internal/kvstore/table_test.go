package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"
)

// testMem is slab memory for tests that drive a table or a policy
// directly: mk carves an item for key out of it, as shard.set would.
type testMem struct {
	t     *testing.T
	alloc *slabAllocator
}

func newTestMem(t *testing.T) *testMem {
	t.Helper()
	a, err := newSlabAllocator(DefaultBaseChunkSize, DefaultGrowthFactor, 1<<16, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	return &testMem{t: t, alloc: a}
}

func (m *testMem) table() *hashTable { return newHashTable(&m.alloc.arena) }

// mk allocates a chunk of the given class and writes key into it.
func (m *testMem) mk(key string, class int) handle {
	m.t.Helper()
	h := m.alloc.alloc(class)
	if h == 0 {
		m.t.Fatalf("test slab exhausted at key %q", key)
	}
	m.alloc.chunk(h).init(class, m.alloc.chunkSize(class), []byte(key), nil)
	return h
}

// key reads the key back out of an item's chunk.
func (m *testMem) key(h handle) string { return string(m.alloc.chunk(h).key()) }

// The table is handed each key's hash by its caller; these helpers are
// that caller.
func lookup(tbl *hashTable, key string) handle {
	h, _ := tbl.lookup([]byte(key), fnv1a64([]byte(key)))
	return h
}

func insert(tbl *hashTable, mem *testMem, key string) {
	tbl.insert(mem.mk(key, 0), fnv1a64([]byte(key)))
}

// remove unlinks key as shard.reap does — by the handle a lookup found —
// and reports whether it was there.
func remove(tbl *hashTable, key string) bool {
	h := lookup(tbl, key)
	if h != 0 {
		tbl.remove(h, fnv1a64([]byte(key)))
	}
	return h != 0
}

func TestTableInsertLookup(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	insert(tbl, mem, "a")
	insert(tbl, mem, "b")
	if lookup(tbl, "a") == 0 || lookup(tbl, "b") == 0 {
		t.Fatal("inserted keys must be found")
	}
	if lookup(tbl, "c") != 0 {
		t.Fatal("absent key found")
	}
	if tbl.len() != 2 {
		t.Fatalf("len = %d", tbl.len())
	}
}

func TestTableRemove(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	insert(tbl, mem, "x")
	if !remove(tbl, "x") {
		t.Fatal("remove of present key failed")
	}
	if remove(tbl, "x") {
		t.Fatal("second remove should find nothing")
	}
	if lookup(tbl, "x") != 0 {
		t.Fatal("removed key still visible")
	}
	if tbl.len() != 0 {
		t.Fatalf("len = %d", tbl.len())
	}
}

func TestTableGrowsAndStaysConsistent(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	const n = 10_000
	for i := 0; i < n; i++ {
		insert(tbl, mem, fmt.Sprintf("key-%d", i))
	}
	if len(tbl.buckets) <= initialBuckets {
		t.Fatalf("table never grew: %d buckets", len(tbl.buckets))
	}
	for i := 0; i < n; i++ {
		if lookup(tbl, fmt.Sprintf("key-%d", i)) == 0 {
			t.Fatalf("key-%d lost after growth", i)
		}
	}
	if tbl.len() != n {
		t.Fatalf("len = %d, want %d", tbl.len(), n)
	}
}

func TestTableLookupDuringMigration(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	// Insert enough to trigger at least one rehash, then probe while the
	// migration is mid-flight.
	for i := 0; i < 100; i++ {
		insert(tbl, mem, fmt.Sprintf("k%d", i))
		for j := 0; j <= i; j++ {
			if lookup(tbl, fmt.Sprintf("k%d", j)) == 0 {
				t.Fatalf("k%d invisible at step %d (old=%v migrate=%d)", j, i, tbl.old != nil, tbl.migrate)
			}
		}
	}
}

func TestTableRemoveDuringMigration(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	const n = 200
	for i := 0; i < n; i++ {
		insert(tbl, mem, fmt.Sprintf("k%d", i))
	}
	// Remove them all, interleaving lookups.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if !remove(tbl, key) {
			t.Fatalf("remove(%s) failed", key)
		}
		if lookup(tbl, key) != 0 {
			t.Fatalf("%s visible after removal", key)
		}
	}
	if tbl.len() != 0 {
		t.Fatalf("len = %d after removing all", tbl.len())
	}
}

func TestTableForEachVisitsAll(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	const n = 500
	for i := 0; i < n; i++ {
		insert(tbl, mem, fmt.Sprintf("k%d", i))
	}
	seen := make(map[string]bool)
	tbl.forEach(func(_ handle, c chunk) { seen[string(c.key())] = true })
	if len(seen) != n {
		t.Fatalf("forEach visited %d items, want %d", len(seen), n)
	}
}

func TestFNVKnownVectors(t *testing.T) {
	// Standard FNV-1a 64 test vectors.
	cases := map[string]uint64{
		"":    14695981039346656037,
		"a":   0xaf63dc4c8601ec8c,
		"foo": 0xdcb27518fed9d577,
	}
	for in, want := range cases {
		if got := fnv1a64([]byte(in)); got != want {
			t.Errorf("fnv1a64(%q) = %#x, want %#x", in, got, want)
		}
	}
}

func TestTableModelEquivalenceProperty(t *testing.T) {
	// Drive the table and a map with the same random operation sequence;
	// they must agree at every step.
	type op struct {
		Insert bool
		Key    uint8
	}
	f := func(ops []op) bool {
		mem := newTestMem(t)
		tbl := mem.table()
		model := make(map[string]bool)
		for _, o := range ops {
			key := fmt.Sprintf("key-%d", o.Key)
			if o.Insert {
				if !model[key] {
					insert(tbl, mem, key)
					model[key] = true
				}
			} else {
				got := remove(tbl, key)
				want := model[key]
				if got != want {
					return false
				}
				delete(model, key)
			}
			if tbl.len() != len(model) {
				return false
			}
		}
		for key := range model {
			if lookup(tbl, key) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
