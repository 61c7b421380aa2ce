package kvstore

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

func (m *testMem) table() *hashTable { return newHashTable(m.alloc) }

// mk allocates a chunk of the given class and writes key into it.
func (m *testMem) mk(key string, class int) handle {
	m.t.Helper()
	h := m.alloc.alloc(class)
	if h == 0 {
		m.t.Fatalf("test slab exhausted at key %q", key)
	}
	m.alloc.chunk(h).init(class, m.alloc.chunkSize(class), []byte(key), 0)
	return h
}

// key reads the key back out of an item's chunk.
func (m *testMem) key(h handle) string { return string(m.alloc.chunk(h).key()) }

// The table is handed each key's hash by its caller; these helpers are
// that caller.
func lookup(tbl *hashTable, key string) handle {
	h, _ := tbl.lookup([]byte(key), tbl.hashKey([]byte(key)))
	return h
}

func insert(tbl *hashTable, mem *testMem, key string) handle {
	h := mem.mk(key, 0)
	tbl.insert(h, tbl.hashKey([]byte(key)))
	return h
}

// remove unlinks key as shard.reap does — by the handle a lookup found —
// frees its chunk, and reports whether it was there. The chunk must go:
// a rebuild re-places every chunk in use.
func remove(tbl *hashTable, key string) bool {
	h := lookup(tbl, key)
	if h != 0 {
		tbl.remove(h, tbl.hashKey([]byte(key)))
		tbl.alloc.release(h)
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

func TestTableRemoveAll(t *testing.T) {
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

// tableCheck verifies a table's structure against the chunks its slots
// name. Its buffers are reused from one check to the next: seen[h] is
// the check that last met handle h.
type tableCheck struct {
	n    uint32
	seen []uint32
	over []int
}

// check requires: a slot is empty in its tag and its handle together;
// count is the number of occupied slots; no handle sits in two slots;
// each entry carries its key's tag; and each bucket's overflow count is
// the number of entries whose probe passed it, or saturated at 255. The
// last makes every entry reachable from its key's hash: each bucket from
// its home to its own counts it, so no lookup stops short of it.
func (tc *tableCheck) check(t *hashTable) error {
	if tc.seen == nil {
		tc.seen = make([]uint32, len(t.alloc.pages)<<t.alloc.offBits)
	}
	tc.n++
	if cap(tc.over) < len(t.buckets) {
		tc.over = make([]int, len(t.buckets))
	}
	tc.over = tc.over[:len(t.buckets)]
	clear(tc.over)
	occupied := 0
	for b := range t.buckets {
		for i, tag := range t.buckets[b].tags {
			h := t.slots[b*bucketSlots+i]
			if (tag == 0) != (h == 0) {
				return fmt.Errorf("bucket %d slot %d: tag %d, handle %#x", b, i, tag, h)
			}
			if h == 0 {
				continue
			}
			occupied++
			if tc.seen[h] == tc.n {
				return fmt.Errorf("handle %#x is in two slots", h)
			}
			tc.seen[h] = tc.n
			key := t.alloc.chunk(h).key()
			hash := t.hashKey(key)
			if tagOf(hash) != tag {
				return fmt.Errorf("%q: slot tag %d, its hash's tag %d", key, tag, tagOf(hash))
			}
			for home := hash & t.mask; home != uint64(b); home = (home + 1) & t.mask {
				tc.over[home]++
			}
		}
	}
	if occupied != t.count {
		return fmt.Errorf("count %d, occupied slots %d", t.count, occupied)
	}
	for b, want := range tc.over {
		if got := int(t.buckets[b].over); got != want && got != math.MaxUint8 {
			return fmt.Errorf("bucket %d counts %d overflows, %d entries probed past it", b, got, want)
		}
	}
	return nil
}

// TestTableProperty runs seeded insert/lookup/remove sequences against
// a map and checks the table's structure after every op. Each sequence
// fills the table, mostly inserting, until it has grown minGrowths
// times, then churns: as many removals as inserts. Besides fnv1a64, it
// places keys by crafted hashes: one that gives every key the same
// bucket and tag, so every probe walks full buckets and every tag match
// but one is false, and one that packs the keys into four home buckets
// under three tags.
func TestTableProperty(t *testing.T) {
	cases := []struct {
		name       string
		hash       func([]byte) uint64
		keys       int
		minGrowths int
	}{
		{"fnv1a64", fnv1a64, 4000, 6},
		{"one-bucket-one-tag", func([]byte) uint64 { return 0 }, 240, 2},
		{"four-buckets-three-tags", func(k []byte) uint64 { return fnv1a64(k) & (3<<32 | 3) }, 400, 3},
	}
	const churnOps = 800
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				mem := newTestMem(t)
				tbl := mem.table()
				tbl.hashKey = tc.hash
				model := map[string]handle{}
				rng := rand.New(rand.NewSource(seed))
				var check tableCheck
				growths, churn := 0, 0
				for op := 0; churn < churnOps; op++ {
					insertBelow, removeBelow := 8, 9 // of 10; the rest look up
					if growths >= tc.minGrowths {
						insertBelow, removeBelow = 4, 8
						churn++
					}
					key := fmt.Sprintf("k%d", rng.Intn(tc.keys))
					want, present := model[key]
					switch r := rng.Intn(10); {
					case r < insertBelow && !present:
						size := len(tbl.buckets)
						model[key] = insert(tbl, mem, key)
						if len(tbl.buckets) != size {
							growths++
						}
					case r >= insertBelow && r < removeBelow && present:
						if !remove(tbl, key) {
							t.Fatalf("seed %d op %d: remove %q found nothing", seed, op, key)
						}
						delete(model, key)
					default:
						if got := lookup(tbl, key); got != want {
							t.Fatalf("seed %d op %d: lookup %q = %#x, want %#x", seed, op, key, got, want)
						}
					}
					if err := check.check(tbl); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
					if tbl.len() != len(model) {
						t.Fatalf("seed %d op %d: len %d, model %d", seed, op, tbl.len(), len(model))
					}
				}
				for key, want := range model {
					if got := lookup(tbl, key); got != want {
						t.Fatalf("seed %d: lookup %q = %#x, want %#x", seed, key, got, want)
					}
				}
			}
		})
	}
}

// TestTableConcurrentLookups runs lookups, hits and misses, from many
// goroutines on one populated table with no writer. A lookup mutates
// nothing, so the race detector finds nothing to report.
func TestTableConcurrentLookups(t *testing.T) {
	mem := newTestMem(t)
	tbl := mem.table()
	const n = 2000
	handles := make([]handle, n)
	for i := range handles {
		handles[i] = insert(tbl, mem, fmt.Sprintf("k%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range handles {
				j := (i + g*n/8) % n
				if got := lookup(tbl, fmt.Sprintf("k%d", j)); got != handles[j] {
					t.Errorf("k%d: lookup %#x, want %#x", j, got, handles[j])
					return
				}
				if got := lookup(tbl, fmt.Sprintf("absent%d", j)); got != 0 {
					t.Errorf("absent%d: lookup %#x", j, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkTableRebuild times the largest pause growth makes at
// rtt_get's size: a shard holding 62,500 items of 12 B keys and 100 B
// values rebuilt into 131,072 slots, the size its last doubling
// reaches. Each op is one rebuild: the walk of the shard's pages, the
// hash of every key and its placement.
func BenchmarkTableRebuild(b *testing.B) {
	const items = 62_500
	a, err := newSlabAllocator(DefaultBaseChunkSize, DefaultGrowthFactor, DefaultSlabPageSize, 16<<20)
	if err != nil {
		b.Fatal(err)
	}
	tbl := newHashTable(a)
	value := make([]byte, 100)
	for i := 0; i < items; i++ {
		key := []byte(fmt.Sprintf("key:%08d", i))
		class, _ := a.classFor(itemFootprint(len(key), len(value)))
		h := a.alloc(class)
		if h == 0 {
			b.Fatal("slab exhausted")
		}
		copy(a.chunk(h).init(class, a.chunkSize(class), key, len(value)), value)
		tbl.insert(h, fnv1a64(key))
	}
	const buckets = 131_072 / bucketSlots
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.rebuild(buckets)
	}
	b.StopTimer()
	if tbl.len() != items || len(tbl.buckets) != buckets {
		b.Fatalf("rebuilt %d items into %d buckets", tbl.len(), len(tbl.buckets))
	}
}
