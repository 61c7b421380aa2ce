package kvstore

import (
	"errors"
	"strconv"
)

// Errors returned by storage operations; the protocol layer maps these
// onto memcached wire responses.
var (
	ErrNotFound    = errors.New("kvstore: not found")
	ErrExists      = errors.New("kvstore: exists (cas mismatch)")
	ErrNotStored   = errors.New("kvstore: not stored")
	ErrTooLarge    = errors.New("kvstore: object too large for cache")
	ErrOutOfMemory = errors.New("kvstore: out of memory storing object")
	ErrNotNumeric  = errors.New("kvstore: value is not a number")
	ErrBadKey      = errors.New("kvstore: invalid key")
)

// MaxKeyLen mirrors memcached's 250-byte key limit.
const MaxKeyLen = 250

// shardStats counts events inside one shard (unsynchronized; the shard
// lock covers them).
type shardStats struct {
	GetHits       uint64
	GetMisses     uint64
	Sets          uint64
	DeleteHits    uint64
	DeleteMiss    uint64
	CasHits       uint64
	CasMisses     uint64
	CasBadval     uint64
	IncrHits      uint64
	IncrMisses    uint64
	DecrHits      uint64
	DecrMisses    uint64
	TouchHits     uint64
	TouchMisses   uint64
	Evictions     uint64
	Expired       uint64
	SlabReassigns uint64
	TotalItems    uint64
	BytesUsed     int64
	// ReadLocks counts lock acquisitions by the GET paths: one per key
	// for the single-key calls, one per involved shard for the batch
	// calls (Store.ReadLockCount).
	ReadLocks uint64
}

// shard is the single-threaded store engine. The concurrent Store wraps
// one or more shards behind locks. Keys arrive as borrowed byte slices:
// the only copy a shard retains is the one it writes into the chunk.
type shard struct {
	table    *hashTable
	alloc    *slabAllocator
	pol      policy
	stats    shardStats //kv3d:guardedby lockedShard.mu
	casSeq   *casCounter
	flushCAS uint64 // flush_all's watermark: items with a CAS id below it are dead
	flushAt  int64  // unix time a delayed flush_all is due; 0 none pending
	maxItem  int
	evictOn  bool
	maxProbe int // eviction attempts before giving up
	// setsSinceSteal counts stores since the last live-page steal, for
	// the reassignment cooldown. Starts saturated so the first starving
	// class may steal immediately.
	setsSinceSteal int
}

func newShard(alloc *slabAllocator, kind EvictionPolicy, cas *casCounter, maxItem int, evict bool) *shard {
	return &shard{
		table:          newHashTable(&alloc.arena),
		alloc:          alloc,
		pol:            newPolicy(kind, &alloc.arena, alloc.numClasses()),
		casSeq:         cas,
		maxItem:        maxItem,
		evictOn:        evict,
		maxProbe:       64,
		setsSinceSteal: stealCooldownOps,
	}
}

// live returns the item for key if present and not expired/flushed; lazily
// reaps dead items it encounters.
//
//kv3d:borrowed
func (s *shard) live(key []byte, hash uint64, now int64) (handle, chunk) {
	s.fireFlush(now)
	h, c := s.table.lookup(key, hash)
	if h == 0 {
		return 0, nil
	}
	if s.dead(c, now) {
		s.reap(h, c, hash)
		s.stats.Expired++
		return 0, nil
	}
	return h, c
}

// flushNow is flush_all: every item the shard holds dies. The CAS
// counter is store-wide and only grows, and the shard lock is held, so
// the items of this shard are exactly those with an id up to its
// current value (memcached's oldest_cas).
func (s *shard) flushNow() { s.flushCAS = s.casSeq.last() + 1 }

// fireFlush applies a delayed flush_all that has come due. Every entry
// point that judges or stores items (live, set, the sweep, the key
// listing) calls it before anything else, so what was stored before the
// due time dies and the store that found it due gets its CAS id after
// the watermark.
func (s *shard) fireFlush(now int64) {
	if s.flushAt != 0 && now >= s.flushAt {
		s.flushAt = 0
		s.flushNow()
	}
}

// dead reports whether the item is past its TTL or below the flush
// watermark.
func (s *shard) dead(c chunk, now int64) bool {
	return c.casID() < s.flushCAS || c.expired(now)
}

// reap removes item h, whose key hashes to hash, from the table and the
// policy and frees its chunk.
func (s *shard) reap(h handle, c chunk, hash uint64) {
	s.table.remove(h, hash)
	s.pol.onRemove(h)
	s.stats.BytesUsed -= int64(itemFootprint(c.keyLen(), c.valueLen()))
	s.alloc.release(h)
}

// evict reaps an eviction or page-steal victim, counting it as expired
// if it was already dead and as an eviction otherwise.
func (s *shard) evict(h handle, now int64) {
	c := s.alloc.chunk(h)
	if s.dead(c, now) {
		s.stats.Expired++
	} else {
		s.stats.Evictions++
	}
	s.reap(h, c, fnv1a64(c.key()))
}

// get returns a copy of the value plus metadata.
//
//kv3d:borrowed
func (s *shard) get(key []byte, hash uint64, now int64) (value []byte, flags uint32, casID uint64, ok bool) {
	h, c := s.live(key, hash, now)
	if h == 0 {
		s.stats.GetMisses++
		return nil, 0, 0, false
	}
	s.stats.GetHits++
	s.pol.onAccess(h)
	out := make([]byte, c.valueLen())
	copy(out, c.value())
	return out, c.flags(), c.casID(), true
}

// getInto appends the value to dst, so the copy made under the shard
// lock lands in memory the caller already owns.
//
//kv3d:borrowed key
//kv3d:aliases dst
func (s *shard) getInto(dst, key []byte, hash uint64, now int64) (value []byte, flags uint32, casID uint64, ok bool) {
	h, c := s.live(key, hash, now)
	if h == 0 {
		s.stats.GetMisses++
		return dst, 0, 0, false
	}
	s.stats.GetHits++
	s.pol.onAccess(h)
	return append(dst, c.value()...), c.flags(), c.casID(), true
}

// allocChunk obtains a chunk for classIdx, evicting victims from that
// class if necessary and allowed, and falling back to stealing a slab
// page from another class when this class has nothing left to evict
// (memcached's slab reassignment, preventing calcification).
func (s *shard) allocChunk(classIdx int, now int64) handle {
	if h := s.alloc.alloc(classIdx); h != 0 {
		return h
	}
	if !s.evictOn {
		return 0
	}
	for probe := 0; probe < s.maxProbe; probe++ {
		victim := s.pol.victim(classIdx)
		if victim == 0 {
			break
		}
		s.evict(victim, now)
		if h := s.alloc.alloc(classIdx); h != 0 {
			return h
		}
	}
	if s.reassignPageTo(classIdx, now) {
		return s.alloc.alloc(classIdx)
	}
	return 0
}

// stealCooldownOps rate-limits live-page steals: between two steals the
// shard must have served this many stores (memcached's automove is
// similarly conservative, or reassignment thrashes pages between
// classes on mixed-size workloads).
const stealCooldownOps = 1000

// reassignPageTo re-carves a slab page from another class for the
// target class. Pages with no live chunks move for free; stealing a
// page full of live items (evicting them wholesale) sits behind a
// cooldown.
func (s *shard) reassignPageTo(target int, now int64) bool {
	page := s.alloc.freeDonor(target)
	if page == 0 {
		if s.setsSinceSteal < stealCooldownOps {
			return false
		}
		page = s.alloc.liveDonor(target)
		if page == 0 {
			return false
		}
		s.setsSinceSteal = 0
		s.alloc.forEachInUse(page, func(h handle) { s.evict(h, now) })
	}
	if err := s.alloc.completeReassign(page, target); err != nil {
		return false
	}
	s.stats.SlabReassigns++
	return true
}

func validKey(key []byte) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for _, c := range key {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// set unconditionally stores key=value and returns the CAS id it
// assigned — read under the shard lock, so it is this write's id and
// not a later writer's.
//
//kv3d:borrowed
func (s *shard) set(key []byte, hash uint64, value []byte, flags uint32, expireAt, now int64) (uint64, error) {
	s.fireFlush(now)
	if !validKey(key) {
		return 0, ErrBadKey
	}
	need := itemFootprint(len(key), len(value))
	if need > s.maxItem {
		return 0, ErrTooLarge
	}
	classIdx, ok := s.alloc.classFor(need)
	if !ok {
		return 0, ErrTooLarge
	}
	s.setsSinceSteal++

	h, c := s.table.lookup(key, hash)
	if h != 0 && c.class() == classIdx {
		// Overwrite in place: the existing chunk's class fits.
		s.stats.BytesUsed += int64(len(value) - c.valueLen())
		c.setValue(value, s.alloc.chunkSize(classIdx))
		s.pol.onAccess(h)
	} else {
		// Remove the old entry before allocating: the allocator may
		// evict, and the old item must not be reaped twice if it is
		// chosen.
		if h != 0 {
			s.reap(h, c, hash)
		}
		if h = s.allocChunk(classIdx, now); h == 0 {
			return 0, ErrOutOfMemory
		}
		c = s.alloc.chunk(h)
		c.init(classIdx, s.alloc.chunkSize(classIdx), key, value)
		s.table.insert(h, hash)
		s.pol.onInsert(h)
		s.stats.BytesUsed += int64(need)
	}
	casID := s.casSeq.next()
	c.setCAS(casID)
	c.setFlags(flags)
	c.setExpireAt(expireAt)
	s.stats.Sets++
	s.stats.TotalItems++
	return casID, nil
}

// add stores only if the key is absent.
//
//kv3d:borrowed
func (s *shard) add(key []byte, hash uint64, value []byte, flags uint32, expireAt, now int64) (uint64, error) {
	if h, _ := s.live(key, hash, now); h != 0 {
		return 0, ErrNotStored
	}
	return s.set(key, hash, value, flags, expireAt, now)
}

// replace stores only if the key is present.
//
//kv3d:borrowed
func (s *shard) replace(key []byte, hash uint64, value []byte, flags uint32, expireAt, now int64) (uint64, error) {
	if h, _ := s.live(key, hash, now); h == 0 {
		return 0, ErrNotStored
	}
	return s.set(key, hash, value, flags, expireAt, now)
}

// cas stores only if the entry's CAS id still matches.
//
//kv3d:borrowed
func (s *shard) cas(key []byte, hash uint64, value []byte, flags uint32, expireAt int64, casID uint64, now int64) (uint64, error) {
	h, c := s.live(key, hash, now)
	if h == 0 {
		s.stats.CasMisses++
		return 0, ErrNotFound
	}
	if c.casID() != casID {
		s.stats.CasBadval++
		return 0, ErrExists
	}
	s.stats.CasHits++
	return s.set(key, hash, value, flags, expireAt, now)
}

// appendValue / prependValue concatenate onto an existing value.
//
//kv3d:borrowed
func (s *shard) appendValue(key []byte, hash uint64, extra []byte, now int64, front bool) error {
	h, c := s.live(key, hash, now)
	if h == 0 {
		return ErrNotStored
	}
	buf := make([]byte, 0, c.valueLen()+len(extra))
	if front {
		buf = append(buf, extra...)
		buf = append(buf, c.value()...)
	} else {
		buf = append(buf, c.value()...)
		buf = append(buf, extra...)
	}
	_, err := s.set(key, hash, buf, c.flags(), c.expireAt(), now)
	return err
}

// incrDecr adjusts a decimal-uint64 value and returns it with the CAS
// id of the rewritten item. Decrement floors at zero (memcached
// semantics); increment wraps.
//
//kv3d:borrowed
func (s *shard) incrDecr(key []byte, hash uint64, delta uint64, incr bool, now int64) (next, casID uint64, err error) {
	h, c := s.live(key, hash, now)
	if h == 0 {
		if incr {
			s.stats.IncrMisses++
		} else {
			s.stats.DecrMisses++
		}
		return 0, 0, ErrNotFound
	}
	cur, err := strconv.ParseUint(string(c.value()), 10, 64)
	if err != nil {
		return 0, 0, ErrNotNumeric
	}
	if incr {
		next = cur + delta
		s.stats.IncrHits++
	} else {
		if delta > cur {
			next = 0
		} else {
			next = cur - delta
		}
		s.stats.DecrHits++
	}
	casID, err = s.set(key, hash, strconv.AppendUint(nil, next, 10), c.flags(), c.expireAt(), now)
	if err != nil {
		return 0, 0, err
	}
	return next, casID, nil
}

// delete removes a key.
//
//kv3d:borrowed
func (s *shard) delete(key []byte, hash uint64, now int64) error {
	h, c := s.live(key, hash, now)
	if h == 0 {
		s.stats.DeleteMiss++
		return ErrNotFound
	}
	s.reap(h, c, hash)
	s.stats.DeleteHits++
	return nil
}

// touch updates the expiry of an existing item.
//
//kv3d:borrowed
func (s *shard) touch(key []byte, hash uint64, expireAt, now int64) error {
	h, c := s.live(key, hash, now)
	if h == 0 {
		s.stats.TouchMisses++
		return ErrNotFound
	}
	c.setExpireAt(expireAt)
	s.stats.TouchHits++
	return nil
}

// itemCount reports live items (including not-yet-reaped dead ones).
func (s *shard) itemCount() int { return s.table.len() }
