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
	stats    shardStats // guarded by lockedShard.mu
	cas      casIDs     // guarded by lockedShard.mu
	flushCAS uint64     // flush_all's watermark: items with a CAS id below it are dead
	flushAt  int64      // unix time a delayed flush_all is due; 0 none pending
	maxItem  int
	evictOn  bool
	maxProbe int // eviction attempts before giving up
	// setsSinceSteal counts stores since the last live-page steal, for
	// the reassignment cooldown. Starts saturated so the first starving
	// class may steal immediately.
	setsSinceSteal int
}

// casIDs is a shard's sequence of CAS ids: the seq-th id it issues is
// seq·stride + base, where stride is the number of shards and base the
// shard's index plus one. Ids are thus unique across the store and rise
// within a shard — and so for each key — without a counter the shards
// share; ids of keys in different shards have no order. With one shard
// they are 1, 2, 3, ...
type casIDs struct{ seq, stride, base uint64 }

// next issues the next id.
func (c *casIDs) next() uint64 {
	id := c.seq*c.stride + c.base
	c.seq++
	return id
}

// upcoming is the id next will issue: above every id issued so far.
func (c *casIDs) upcoming() uint64 { return c.seq*c.stride + c.base }

func newShard(alloc *slabAllocator, cas casIDs, maxItem int, evict bool) *shard {
	return &shard{
		table:          newHashTable(alloc),
		alloc:          alloc,
		cas:            cas,
		maxItem:        maxItem,
		evictOn:        evict,
		maxProbe:       64,
		setsSinceSteal: stealCooldownOps,
	}
}

// live returns the item for key if present and not expired/flushed; lazily
// reaps dead items it encounters.
func (s *shard) live(key []byte, hash uint64, now *lazyNow) (handle, chunk) {
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

// flushNow is flush_all: every item the shard holds dies. The shard's
// CAS ids only grow and are drawn under the shard lock, which is held,
// so the items of this shard are exactly those with an id below the
// next one it will issue (memcached's oldest_cas).
func (s *shard) flushNow() { s.flushCAS = s.cas.upcoming() }

// fireFlush applies a delayed flush_all that has come due. Every entry
// point that judges or stores items (live, set, the sweep, the key
// listing) calls it before anything else, so what was stored before the
// due time dies and the store that found it due gets its CAS id after
// the watermark.
func (s *shard) fireFlush(now *lazyNow) {
	if s.flushAt != 0 && now.get() >= s.flushAt {
		s.flushAt = 0
		s.flushNow()
	}
}

// dead reports whether the item is past its TTL or below the flush
// watermark. The clock is read only for an item that has an expiry.
func (s *shard) dead(c chunk, now *lazyNow) bool {
	return c.casID() < s.flushCAS || (c.expireAt() != 0 && c.expired(now.get()))
}

// reap removes item h, whose key hashes to hash, from the table and
// frees its chunk. It is the one place pinning changes what removal
// does: a pinned item leaves the table and BytesUsed all the same, but
// its chunk stays allocated, marked unlinked, until the last unpin
// frees it.
func (s *shard) reap(h handle, c chunk, hash uint64) {
	s.table.remove(h, hash)
	s.stats.BytesUsed -= int64(itemFootprint(c.keyLen(), c.valueLen()))
	if c.pinned() {
		c.setUnlinked()
		return
	}
	s.alloc.release(h)
}

// pin holds item h's chunk for a sender reading its value outside the
// lock.
func (s *shard) pin(h handle, c chunk) {
	c.pin()
	s.alloc.pagePins[s.alloc.pageOf(h)]++
}

// unpin lets go of one pin on h, freeing the chunk if it was the last
// pin on an item reaped in the meantime.
func (s *shard) unpin(h handle) {
	c := s.alloc.chunk(h)
	c.unpin()
	s.alloc.pagePins[s.alloc.pageOf(h)]--
	if !c.pinned() && c.unlinked() {
		c.clearRef()
		s.alloc.release(h)
	}
}

// evict reaps an eviction or page-steal victim, counting it as expired
// if it was already dead and as an eviction otherwise.
func (s *shard) evict(h handle, now *lazyNow) {
	c := s.alloc.chunk(h)
	if s.dead(c, now) {
		s.stats.Expired++
	} else {
		s.stats.Evictions++
	}
	s.reap(h, c, fnv1a64(c.key()))
}

// getOrPin looks key up for a reader. A value of at least pinFrom
// bytes is pinned and returned as a view of the chunk, with the handle
// to unpin; a shorter one, or one whose pin count is full, is appended
// to dst and returned with the zero handle.
func (s *shard) getOrPin(dst, key []byte, hash uint64, now *lazyNow, pinFrom int) (value []byte, flags uint32, casID uint64, pinned handle, ok bool) {
	h, c := s.live(key, hash, now)
	if h == 0 {
		s.stats.GetMisses++
		return dst, 0, 0, 0, false
	}
	s.stats.GetHits++
	onAccess(c)
	v := c.value()
	if len(v) < pinFrom || c.pinFull() {
		return append(dst, v...), c.flags(), c.casID(), 0, true
	}
	s.pin(h, c)
	return v[:len(v):len(v)], c.flags(), c.casID(), h, true
}

// allocChunk obtains a chunk for classIdx, evicting victims from that
// class if necessary and allowed, and falling back to stealing a slab
// page from another class when this class has nothing left to evict
// (memcached's slab reassignment, preventing calcification). fresh
// reports a chunk no item has used: the class had no free chunk, so it
// came from the class's fresh page, whose memory was never written.
func (s *shard) allocChunk(classIdx int, now *lazyNow) (h handle, fresh bool) {
	fresh = s.alloc.classes[classIdx].free == 0
	if h := s.alloc.alloc(classIdx); h != 0 {
		return h, fresh
	}
	if !s.evictOn {
		return 0, false
	}
	for probe := 0; probe < s.maxProbe; probe++ {
		victim := s.alloc.victim(classIdx)
		if victim == 0 {
			break
		}
		s.evict(victim, now)
		if h := s.alloc.alloc(classIdx); h != 0 {
			return h, false
		}
	}
	if s.reassignPageTo(classIdx, now) {
		return s.alloc.alloc(classIdx), false
	}
	return 0, false
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
func (s *shard) reassignPageTo(target int, now *lazyNow) bool {
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

// fit checks that key and an n-byte value make an item the shard can
// hold, and returns its footprint and slab class.
func (s *shard) fit(key []byte, n int) (need, classIdx int, err error) {
	if !validKey(key) {
		return 0, 0, ErrBadKey
	}
	need = itemFootprint(len(key), n)
	if need > s.maxItem {
		return 0, 0, ErrTooLarge
	}
	classIdx, ok := s.alloc.classFor(need)
	if !ok {
		return 0, 0, ErrTooLarge
	}
	return need, classIdx, nil
}

// set unconditionally stores key=value and returns the CAS id it
// assigned — read under the shard lock, so it is this write's id and
// not a later writer's.
func (s *shard) set(key []byte, hash uint64, value []byte, flags uint32, expireAt int64, now *lazyNow) (uint64, error) {
	s.fireFlush(now)
	need, classIdx, err := s.fit(key, len(value))
	if err != nil {
		return 0, err
	}
	s.setsSinceSteal++

	h, c := s.table.lookup(key, hash)
	if h != 0 && c.class() == classIdx && !c.pinned() {
		// Overwrite in place: the existing chunk's class fits and no
		// sender is reading it.
		s.stats.BytesUsed += int64(len(value) - c.valueLen())
		c.setValue(value, s.alloc.chunkSize(classIdx))
		onAccess(c)
	} else {
		// Remove the old entry before allocating: the allocator may
		// evict, and the old item must not be reaped twice if it is
		// chosen. A pinned old entry keeps its chunk until unpinned.
		if h != 0 {
			s.reap(h, c, hash)
		}
		var fresh bool
		if h, fresh = s.allocChunk(classIdx, now); h == 0 {
			return 0, ErrOutOfMemory
		}
		c = s.alloc.chunk(h)
		v := c.init(classIdx, s.alloc.chunkSize(classIdx), key, len(value))
		if fresh {
			prefault(v)
		}
		copy(v, value)
		s.table.insert(h, hash)
		s.stats.BytesUsed += int64(need)
	}
	return s.stamp(c, flags, expireAt), nil
}

// stamp gives a stored item a new CAS id, its flags and its expiry,
// counts the store, and returns the id.
func (s *shard) stamp(c chunk, flags uint32, expireAt int64) uint64 {
	casID := s.cas.next()
	c.setCAS(casID)
	c.setFlags(flags)
	c.setExpireAt(expireAt)
	s.stats.Sets++
	s.stats.TotalItems++
	return casID
}

// guard is the condition verb stores under: nil if it may store key
// now. add needs the key absent, replace present, and cas present with
// casID as its CAS id; a cas that finds no key or another id is counted
// here, and one that passes by its caller.
func (s *shard) guard(verb Verb, key []byte, hash uint64, casID uint64, now *lazyNow) error {
	switch verb {
	case VerbAdd:
		if h, _ := s.live(key, hash, now); h != 0 {
			return ErrNotStored
		}
	case VerbReplace:
		if h, _ := s.live(key, hash, now); h == 0 {
			return ErrNotStored
		}
	case VerbCAS:
		h, c := s.live(key, hash, now)
		if h == 0 {
			s.stats.CasMisses++
			return ErrNotFound
		}
		if c.casID() != casID {
			s.stats.CasBadval++
			return ErrExists
		}
	}
	return nil
}

// put stores key=value under verb's guard.
func (s *shard) put(verb Verb, key []byte, hash uint64, value []byte, flags uint32, expireAt int64, casID uint64, now *lazyNow) (uint64, error) {
	if err := s.guard(verb, key, hash, casID, now); err != nil {
		return 0, err
	}
	if verb == VerbCAS {
		s.stats.CasHits++
	}
	return s.set(key, hash, value, flags, expireAt, now)
}

// reserve checks verb's guard and allocates the chunk of an item of key
// and an n-byte value, as set would, without linking it: the chunk is
// pinned and marked unlinked, so eviction, page steals, rebuild and the
// crawler pass over it, and an old item of the key stays readable. The
// value is the caller's to write; commit links it. fresh is
// allocChunk's.
func (s *shard) reserve(verb Verb, key []byte, hash uint64, n int, casID uint64, now *lazyNow) (h handle, fresh bool, err error) {
	s.fireFlush(now)
	if err := s.guard(verb, key, hash, casID, now); err != nil {
		return 0, false, err
	}
	_, classIdx, err := s.fit(key, n)
	if err == nil {
		s.setsSinceSteal++
		if h, fresh = s.allocChunk(classIdx, now); h == 0 {
			err = ErrOutOfMemory
		}
	}
	if err != nil {
		if verb == VerbCAS {
			s.stats.CasHits++ // it passed its guard, as a put whose set then fails does
		}
		return 0, false, err
	}
	c := s.alloc.chunk(h)
	c.init(classIdx, s.alloc.chunkSize(classIdx), key, n)
	s.pin(h, c)
	c.setUnlinked()
	return h, fresh, nil
}

// commit stores the item reserve set aside in h, whose key hashes to
// hash, if verb's guard still lets it: it reaps the old item of the key
// and links the new one, as set does. The chunk stays pinned either way
// until the reservation's holder unpins it; refused, it stays unlinked,
// so that unpin frees it.
func (s *shard) commit(h handle, hash uint64, verb Verb, casID uint64, flags uint32, expireAt int64, now *lazyNow) (uint64, error) {
	s.fireFlush(now)
	c := s.alloc.chunk(h)
	key := c.key()
	if err := s.guard(verb, key, hash, casID, now); err != nil {
		return 0, err
	}
	if verb == VerbCAS {
		s.stats.CasHits++
	}
	if old, oc := s.table.lookup(key, hash); old != 0 {
		s.reap(old, oc, hash)
	}
	c.clearUnlinked()
	s.table.insert(h, hash)
	s.stats.BytesUsed += int64(itemFootprint(c.keyLen(), c.valueLen()))
	return s.stamp(c, flags, expireAt), nil
}

// appendValue / prependValue concatenate onto an existing value.
func (s *shard) appendValue(key []byte, hash uint64, extra []byte, now *lazyNow, front bool) error {
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
func (s *shard) incrDecr(key []byte, hash uint64, delta uint64, incr bool, now *lazyNow) (next, casID uint64, err error) {
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
func (s *shard) delete(key []byte, hash uint64, now *lazyNow) error {
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
func (s *shard) touch(key []byte, hash uint64, expireAt int64, now *lazyNow) error {
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
