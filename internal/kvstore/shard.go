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
}

// shard is the single-threaded store engine. The concurrent Store wraps
// one or more shards behind locks.
type shard struct {
	table    *hashTable
	alloc    *slabAllocator
	pol      policy
	stats    shardStats //kv3d:guardedby lockedShard.mu
	casSeq   *casCounter
	flushAt  int64 // items stored strictly before this unix time are dead
	maxItem  int
	evictOn  bool
	maxProbe int // eviction attempts before giving up
	// setsSinceSteal counts stores since the last live-page steal, for
	// the reassignment cooldown. Starts saturated so the first starving
	// class may steal immediately.
	setsSinceSteal int
}

func newShard(alloc *slabAllocator, pol policy, cas *casCounter, maxItem int, evict bool) *shard {
	return &shard{
		table:          newHashTable(),
		alloc:          alloc,
		pol:            pol,
		casSeq:         cas,
		maxItem:        maxItem,
		evictOn:        evict,
		maxProbe:       64,
		setsSinceSteal: stealCooldownOps,
	}
}

// live returns the item for key if present and not expired/flushed; lazily
// reaps dead items it encounters.
func (s *shard) live(key string, now int64) *item {
	it := s.table.lookup(key)
	if it == nil {
		return nil
	}
	if it.expired(now) || s.flushed(it, now) {
		s.reap(it)
		s.stats.Expired++
		return nil
	}
	return it
}

// liveBytes is live with a byte-slice key (the lazily-reaped item's
// own key string drives the removal, so no conversion is needed).
func (s *shard) liveBytes(key []byte, now int64) *item {
	it := s.table.lookupBytes(key)
	if it == nil {
		return nil
	}
	if it.expired(now) || s.flushed(it, now) {
		s.reap(it)
		s.stats.Expired++
		return nil
	}
	return it
}

// flushed reports whether a pending flush_all epoch has fired and this
// item predates it.
func (s *shard) flushed(it *item, now int64) bool {
	return s.flushAt != 0 && now >= s.flushAt && it.storedAt < s.flushAt
}

// reap removes an expired/flushed item.
func (s *shard) reap(it *item) {
	s.table.remove(it.key)
	s.pol.onRemove(it)
	s.freeItem(it)
}

func (s *shard) freeItem(it *item) {
	s.stats.BytesUsed -= int64(itemFootprint(len(it.key), it.valueLen))
	s.alloc.release(it.classIdx, it.ref)
	it.ref, it.data = chunkRef{}, nil
}

// get returns a copy of the value plus metadata.
func (s *shard) get(key string, now int64) (value []byte, flags uint32, casID uint64, ok bool) {
	it := s.live(key, now)
	if it == nil {
		s.stats.GetMisses++
		return nil, 0, 0, false
	}
	s.stats.GetHits++
	s.pol.onAccess(it, now)
	out := make([]byte, it.valueLen)
	copy(out, it.value())
	return out, it.flags, it.casID, true
}

// getInto is a zero-copy-ish variant: appends the value to dst.
//
//kv3d:aliases dst
func (s *shard) getInto(dst []byte, key string, now int64) (value []byte, flags uint32, casID uint64, ok bool) {
	it := s.live(key, now)
	if it == nil {
		s.stats.GetMisses++
		return dst, 0, 0, false
	}
	s.stats.GetHits++
	s.pol.onAccess(it, now)
	return append(dst, it.value()...), it.flags, it.casID, true
}

// getIntoBytes is getInto with a byte-slice key, for the protocol hot
// path where the key is a token of the request line.
//
//kv3d:aliases dst
func (s *shard) getIntoBytes(dst, key []byte, now int64) (value []byte, flags uint32, casID uint64, ok bool) {
	it := s.liveBytes(key, now)
	if it == nil {
		s.stats.GetMisses++
		return dst, 0, 0, false
	}
	s.stats.GetHits++
	s.pol.onAccess(it, now)
	return append(dst, it.value()...), it.flags, it.casID, true
}

// allocChunk obtains a chunk for classIdx, evicting victims from that
// class if necessary and allowed, and falling back to stealing a slab
// page from another class when this class has nothing left to evict
// (memcached's slab reassignment, preventing calcification).
func (s *shard) allocChunk(classIdx int, now int64) chunkRef {
	if ref := s.alloc.alloc(classIdx); ref.data != nil {
		return ref
	}
	if !s.evictOn {
		return chunkRef{}
	}
	for probe := 0; probe < s.maxProbe; probe++ {
		victim := s.pol.victim(classIdx, now)
		if victim == nil {
			break
		}
		if victim.expired(now) || s.flushed(victim, now) {
			s.stats.Expired++
		} else {
			s.stats.Evictions++
		}
		s.reap(victim)
		if ref := s.alloc.alloc(classIdx); ref.data != nil {
			return ref
		}
	}
	if s.reassignPageTo(classIdx, now) {
		if ref := s.alloc.alloc(classIdx); ref.data != nil {
			return ref
		}
	}
	return chunkRef{}
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
	if page == nil {
		if s.setsSinceSteal < stealCooldownOps {
			return false
		}
		page = s.alloc.liveDonor(target)
		if page == nil {
			return false
		}
		s.setsSinceSteal = 0
		var victims []*item
		s.table.forEach(func(it *item) {
			if it.ref.page == page {
				victims = append(victims, it)
			}
		})
		for _, it := range victims {
			if it.expired(now) || s.flushed(it, now) {
				s.stats.Expired++
			} else {
				s.stats.Evictions++
			}
			s.reap(it)
		}
	}
	if err := s.alloc.completeReassign(page, target); err != nil {
		return false
	}
	s.stats.SlabReassigns++
	return true
}

func validKey(key string) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// set unconditionally stores key=value and returns the CAS id it
// assigned — read under the shard lock, so it is this write's id and
// not a later writer's.
func (s *shard) set(key string, value []byte, flags uint32, expireAt, now int64) (uint64, error) {
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

	old := s.table.lookup(key)

	// Fast path: overwrite in place when the existing chunk class fits.
	if old != nil && old.classIdx == classIdx {
		copy(old.ref.data, value)
		s.stats.BytesUsed += int64(len(value) - old.valueLen)
		old.valueLen = len(value)
		old.data = old.ref.data
		old.flags = flags
		old.expireAt = expireAt
		old.storedAt = now
		old.casID = s.casSeq.next()
		s.pol.onAccess(old, now)
		s.stats.Sets++
		s.stats.TotalItems++
		return old.casID, nil
	}

	// Remove the old entry before allocating: the allocator may evict,
	// and the old item must not be reaped twice if it is chosen.
	if old != nil {
		s.reap(old)
	}
	ref := s.allocChunk(classIdx, now)
	if ref.data == nil {
		return 0, ErrOutOfMemory
	}
	it := &item{
		key:      key,
		ref:      ref,
		data:     ref.data,
		valueLen: len(value),
		flags:    flags,
		casID:    s.casSeq.next(),
		expireAt: expireAt,
		storedAt: now,
		classIdx: classIdx,
	}
	copy(ref.data, value)
	s.table.insert(it)
	s.pol.onInsert(it, now)
	s.stats.BytesUsed += int64(itemFootprint(len(key), len(value)))
	s.stats.Sets++
	s.stats.TotalItems++
	return it.casID, nil
}

// add stores only if the key is absent.
func (s *shard) add(key string, value []byte, flags uint32, expireAt, now int64) (uint64, error) {
	if s.live(key, now) != nil {
		return 0, ErrNotStored
	}
	return s.set(key, value, flags, expireAt, now)
}

// replace stores only if the key is present.
func (s *shard) replace(key string, value []byte, flags uint32, expireAt, now int64) (uint64, error) {
	if s.live(key, now) == nil {
		return 0, ErrNotStored
	}
	return s.set(key, value, flags, expireAt, now)
}

// cas stores only if the entry's CAS id still matches.
func (s *shard) cas(key string, value []byte, flags uint32, expireAt int64, casID uint64, now int64) (uint64, error) {
	it := s.live(key, now)
	if it == nil {
		s.stats.CasMisses++
		return 0, ErrNotFound
	}
	if it.casID != casID {
		s.stats.CasBadval++
		return 0, ErrExists
	}
	s.stats.CasHits++
	return s.set(key, value, flags, expireAt, now)
}

// appendValue / prependValue concatenate onto an existing value.
func (s *shard) appendValue(key string, extra []byte, now int64, front bool) error {
	it := s.live(key, now)
	if it == nil {
		return ErrNotStored
	}
	newLen := it.valueLen + len(extra)
	buf := make([]byte, 0, newLen)
	if front {
		buf = append(buf, extra...)
		buf = append(buf, it.value()...)
	} else {
		buf = append(buf, it.value()...)
		buf = append(buf, extra...)
	}
	_, err := s.set(key, buf, it.flags, it.expireAt, now)
	return err
}

// incrDecr adjusts a decimal-uint64 value and returns it with the CAS
// id of the rewritten item. Decrement floors at zero (memcached
// semantics); increment wraps.
func (s *shard) incrDecr(key string, delta uint64, incr bool, now int64) (next, casID uint64, err error) {
	it := s.live(key, now)
	if it == nil {
		if incr {
			s.stats.IncrMisses++
		} else {
			s.stats.DecrMisses++
		}
		return 0, 0, ErrNotFound
	}
	cur, err := strconv.ParseUint(string(it.value()), 10, 64)
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
	casID, err = s.set(key, strconv.AppendUint(nil, next, 10), it.flags, it.expireAt, now)
	if err != nil {
		return 0, 0, err
	}
	return next, casID, nil
}

// delete removes a key.
func (s *shard) delete(key string, now int64) error {
	it := s.live(key, now)
	if it == nil {
		s.stats.DeleteMiss++
		return ErrNotFound
	}
	s.reap(it)
	s.stats.DeleteHits++
	return nil
}

// touch updates the expiry of an existing item.
func (s *shard) touch(key string, expireAt, now int64) error {
	it := s.live(key, now)
	if it == nil {
		s.stats.TouchMisses++
		return ErrNotFound
	}
	it.expireAt = expireAt
	s.stats.TouchHits++
	return nil
}

// flushAll invalidates everything stored before the given epoch.
func (s *shard) flushAll(epoch int64) {
	if epoch > s.flushAt {
		s.flushAt = epoch
	}
}

// itemCount reports live items (including not-yet-reaped dead ones).
func (s *shard) itemCount() int { return s.table.len() }
