package kvstore

import "math"

// hashTable is a shard's index: open addressing over buckets of four
// slots, probed linearly from the key's home bucket. A slot is a 4-byte
// handle plus a 1-byte tag drawn from hash bits that neither the shard
// nor the bucket uses; 0 marks an empty slot. Each bucket also counts
// the entries that probed past it because it was full (the outbound
// overflow count of folly's F14), so a lookup stops at the first bucket
// no entry overflowed instead of at an empty slot, and a removal clears
// its slot outright: there are no tombstones.
//
// The slots live in flat arrays outside the chunks, so a miss, a tag
// mismatch and the insert of a new key read no chunk, except on a false
// tag (1 in 255 per occupied slot compared); a hit reads only the item
// it returns; and a lookup writes nothing.
//
// Growth stops the shard: rebuild walks the shard's slab pages in
// address order and hashes the key of every item the table holds into
// arrays twice the size. Reading every item once, in order, is cheaper
// than following the old slots' handles into random chunks, and nothing
// holds the old arrays once it returns.
type hashTable struct {
	alloc   *slabAllocator
	hashKey func([]byte) uint64 // the hash rebuild places keys by: fnv1a64, or a test's crafted one
	buckets []bucket
	slots   []handle // slot i of bucket b is slots[b*bucketSlots+i]
	mask    uint64   // len(buckets) - 1
	count   int
}

// bucket is one bucket's tags and its overflow count. The count
// saturates at 255 and then stays there until a rebuild: an overcount
// only lengthens a probe.
type bucket struct {
	tags [bucketSlots]uint8
	over uint8
}

const (
	bucketSlots    = 4
	initialBuckets = 16
	maxLoadNum     = 7 // grow past 7/8 of the slots in use
	maxLoadDen     = 8
)

func newHashTable(alloc *slabAllocator) *hashTable {
	t := &hashTable{alloc: alloc, hashKey: fnv1a64}
	t.reset(initialBuckets)
	return t
}

// fnv1a64 is the FNV-1a hash used to place keys. The Store hashes a
// key once per call and hands the hash down: the high bits pick the
// shard, the low bits the bucket, bits 32–39 the tag.
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

// tagOf is the slot tag for hash: never 0, which marks an empty slot.
func tagOf(hash uint64) uint8 {
	if tag := uint8(hash >> 32); tag != 0 {
		return tag
	}
	return 1
}

// reset empties the table and sizes it to n buckets, a power of two.
func (t *hashTable) reset(n int) {
	t.buckets = make([]bucket, n)
	t.slots = make([]handle, n*bucketSlots)
	t.mask = uint64(n - 1)
	t.count = 0
}

// lookup finds the item for key, whose hash is hash, or the zero
// handle. It reads the table and the chunks whose tag matches, and
// writes nothing. The probe visits each bucket at most once: after
// removals the overflow counts alone need not leave a bucket at 0.
func (t *hashTable) lookup(key []byte, hash uint64) (handle, chunk) {
	tag := tagOf(hash)
	b := hash & t.mask
	for range t.buckets {
		bk := &t.buckets[b]
		for i, tg := range bk.tags {
			if tg == tag {
				h := t.slots[b*bucketSlots+uint64(i)]
				if c := t.alloc.chunk(h); c.hasKey(key) {
					return h, c
				}
			}
		}
		if bk.over == 0 {
			break
		}
		b = (b + 1) & t.mask
	}
	return 0, nil
}

// insert adds item h, which is not present and whose key hashes to
// hash. Past the load limit it rebuilds the table at twice the size
// instead, which places h with every other item the shard holds.
func (t *hashTable) insert(h handle, hash uint64) {
	if (t.count+1)*maxLoadDen > len(t.slots)*maxLoadNum {
		t.rebuild(2 * len(t.buckets))
		return
	}
	t.place(h, hash)
	t.count++
}

// place puts h in the first free slot from its home bucket on, counting
// an overflow on every full bucket it passes. The load limit keeps a
// slot free.
func (t *hashTable) place(h handle, hash uint64) {
	tag := tagOf(hash)
	for b := hash & t.mask; ; b = (b + 1) & t.mask {
		bk := &t.buckets[b]
		for i, tg := range bk.tags {
			if tg == 0 {
				bk.tags[i] = tag
				t.slots[b*bucketSlots+uint64(i)] = h
				return
			}
		}
		if bk.over < math.MaxUint8 {
			bk.over++
		}
	}
}

// remove clears the slot of item h, which is present and whose key
// hashes to hash, and takes back the overflows its probe counted. The
// slot is found by comparing handles, not keys.
func (t *hashTable) remove(h handle, hash uint64) {
	tag := tagOf(hash)
	b := hash & t.mask
	for range t.buckets {
		bk := &t.buckets[b]
		for i, tg := range bk.tags {
			if s := b*bucketSlots + uint64(i); tg == tag && t.slots[s] == h {
				bk.tags[i], t.slots[s] = 0, 0
				t.count--
				return
			}
		}
		if bk.over < math.MaxUint8 {
			bk.over--
		}
		b = (b + 1) & t.mask
	}
	panic("kvstore: removing an item the table does not hold")
}

// rebuild re-places every item the shard holds into a table of n
// buckets. The items are the chunks in use that did not leave the
// table while pinned, read page by page in address order.
func (t *hashTable) rebuild(n int) {
	t.reset(n)
	a := t.alloc
	for page := uint32(1); page <= a.numPages; page++ {
		a.forEachInUse(page, func(h handle) {
			if c := a.chunk(h); !c.unlinked() {
				t.place(h, t.hashKey(c.key()))
				t.count++
			}
		})
	}
}

// forEach visits every item. Mutation during iteration is not allowed.
func (t *hashTable) forEach(fn func(handle, chunk)) {
	for _, h := range t.slots {
		if h != 0 {
			fn(h, t.alloc.chunk(h))
		}
	}
}

// len reports the number of stored items.
func (t *hashTable) len() int { return t.count }
