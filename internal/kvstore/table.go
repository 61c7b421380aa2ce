package kvstore

// hashTable is a chained hash table with memcached-style incremental
// rehashing: when the load factor crosses the threshold the table
// doubles, and buckets migrate a few at a time on subsequent operations
// instead of in one stop-the-world pass. Buckets are flat arrays of
// handles and chains run through the items' own headers, so the table
// is the only memory an item costs outside its chunk: four bytes per
// bucket.
type hashTable struct {
	mem     *arena
	buckets []handle
	old     []handle // non-nil while a rehash is in progress
	migrate int      // next old bucket index to migrate
	count   int
}

const (
	initialBuckets = 16
	loadFactorNum  = 3 // grow when count > buckets * 3/2
	loadFactorDen  = 2
	migrationPerOp = 2 // old buckets moved per mutating operation
)

func newHashTable(mem *arena) *hashTable {
	return &hashTable{mem: mem, buckets: make([]handle, initialBuckets)}
}

// fnv1a64 is the FNV-1a hash used to place keys. The Store hashes a
// key once per call and hands the hash down: the high bits pick the
// shard, the low bits the bucket.
func fnv1a64(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func bucketFor(tbl []handle, hash uint64) int {
	return int(hash & uint64(len(tbl)-1))
}

// chainFor returns the bucket array and index whose chain holds the
// keys that hash to hash, following an in-progress rehash: an old
// bucket not yet migrated still owns its keys.
func (t *hashTable) chainFor(hash uint64) ([]handle, int) {
	if t.old != nil {
		if i := bucketFor(t.old, hash); i >= t.migrate {
			return t.old, i
		}
	}
	return t.buckets, bucketFor(t.buckets, hash)
}

// lookup finds the item for key, whose hash is hash, or the zero
// handle.
//
//kv3d:borrowed
func (t *hashTable) lookup(key []byte, hash uint64) (handle, chunk) {
	tbl, i := t.chainFor(hash)
	for h := tbl[i]; h != 0; {
		c := t.mem.chunk(h)
		if c.hasKey(key) {
			return h, c
		}
		h = c.hnext()
	}
	return 0, nil
}

// insert adds an item that is known not to be present.
func (t *hashTable) insert(h handle, hash uint64) {
	t.stepMigration()
	c := t.mem.chunk(h)
	tbl, i := t.chainFor(hash)
	c.setHNext(tbl[i])
	tbl[i] = h
	t.count++
	if t.old == nil {
		t.maybeGrow()
	}
}

// remove unlinks item h, which is present and whose key hashes to hash:
// the chain is walked comparing handles, not keys.
func (t *hashTable) remove(h handle, hash uint64) {
	t.stepMigration()
	tbl, i := t.chainFor(hash)
	c := t.mem.chunk(h)
	if tbl[i] == h {
		tbl[i] = c.hnext()
	} else {
		prev := t.mem.chunk(tbl[i])
		for prev.hnext() != h {
			prev = t.mem.chunk(prev.hnext())
		}
		prev.setHNext(c.hnext())
	}
	c.setHNext(0)
	t.count--
}

// maybeGrow starts an incremental rehash when the load factor is high.
func (t *hashTable) maybeGrow() {
	if t.count*loadFactorDen <= len(t.buckets)*loadFactorNum {
		return
	}
	t.old = t.buckets
	t.buckets = make([]handle, len(t.old)*2)
	t.migrate = 0
}

// stepMigration moves a few buckets from the old table into the new one.
func (t *hashTable) stepMigration() {
	if t.old == nil {
		return
	}
	for n := 0; n < migrationPerOp && t.migrate < len(t.old); n++ {
		for h := t.old[t.migrate]; h != 0; {
			c := t.mem.chunk(h)
			next := c.hnext()
			i := bucketFor(t.buckets, fnv1a64(c.key()))
			c.setHNext(t.buckets[i])
			t.buckets[i] = h
			h = next
		}
		t.old[t.migrate] = 0
		t.migrate++
	}
	if t.migrate >= len(t.old) {
		t.old = nil
		t.migrate = 0
	}
}

// finishMigration completes any in-progress rehash (used by iteration).
func (t *hashTable) finishMigration() {
	for t.old != nil {
		t.stepMigration()
	}
}

// forEach visits every item. Mutation during iteration is not allowed.
func (t *hashTable) forEach(fn func(handle, chunk)) {
	t.finishMigration()
	for _, head := range t.buckets {
		for h := head; h != 0; {
			c := t.mem.chunk(h)
			fn(h, c)
			h = c.hnext()
		}
	}
}

// len reports the number of stored items.
func (t *hashTable) len() int { return t.count }
