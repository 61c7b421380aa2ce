package kvstore

import (
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"kv3d/internal/clock"
	"kv3d/internal/sim"
)

// Config configures a Store. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// MemoryLimit is the total slab budget in bytes across all shards.
	MemoryLimit int64
	// Shards is the number of independently locked partitions of the
	// keyspace, rounded up to a power of two (<= 0 selects 8). One shard
	// is memcached 1.4's global cache lock; more are memcached 1.6's
	// striped locking.
	Shards int
	// EvictionsEnabled allows evicting live items under memory pressure
	// (memcached -M disables this and errors instead).
	EvictionsEnabled bool
	// MaxItemSize bounds key+value+overhead bytes for one item.
	MaxItemSize int
	// BaseChunkSize, GrowthFactor, SlabPageSize tune the slab ladder.
	BaseChunkSize int
	GrowthFactor  float64
	SlabPageSize  int
	// Clock is what expiry, flush delays and uptime count whole seconds
	// of; nil selects clock.Wall. Simulations and experiments must
	// inject a deterministic clock (LINTING.md).
	Clock clock.Clock
}

// DefaultConfig returns a memcached-like configuration with the given
// memory limit.
func DefaultConfig(memoryLimit int64) Config {
	return Config{
		MemoryLimit:      memoryLimit,
		Shards:           8,
		EvictionsEnabled: true,
		MaxItemSize:      DefaultMaxItemSize,
		BaseChunkSize:    DefaultBaseChunkSize,
		GrowthFactor:     DefaultGrowthFactor,
		SlabPageSize:     DefaultSlabPageSize,
	}
}

// Store is the concurrent, memcached-compatible key-value store.
type Store struct {
	cfg       Config
	shards    []*lockedShard
	mask      uint64
	clock     clock.Clock
	startUnix int64
}

// ReadLockCount reports the cumulative shard-lock acquisitions of the
// GET paths (per key for the single-key calls, per involved shard for
// the batch calls). It is the hook the multiget tests use to prove an
// N-key batch costs at most Shards acquisitions instead of N.
func (st *Store) ReadLockCount() uint64 {
	var n uint64
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += sh.s.stats.ReadLocks
		sh.mu.Unlock()
	}
	return n
}

type lockedShard struct {
	mu sync.Mutex
	s  *shard
}

// New validates the configuration and builds the store.
func New(cfg Config) (*Store, error) {
	if cfg.MemoryLimit <= 0 {
		return nil, fmt.Errorf("kvstore: memory limit must be positive, got %d", cfg.MemoryLimit)
	}
	if cfg.MaxItemSize <= 0 {
		cfg.MaxItemSize = DefaultMaxItemSize
	}
	if cfg.BaseChunkSize <= 0 {
		cfg.BaseChunkSize = DefaultBaseChunkSize
	}
	if cfg.GrowthFactor <= 1 {
		cfg.GrowthFactor = DefaultGrowthFactor
	}
	if cfg.SlabPageSize <= 0 {
		cfg.SlabPageSize = DefaultSlabPageSize
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	// Round up to a power of two for mask addressing.
	nShards := 1
	for nShards < cfg.Shards {
		nShards <<= 1
	}
	cfg.Shards = nShards
	perShard := cfg.MemoryLimit / int64(nShards)
	if perShard < int64(cfg.SlabPageSize) {
		return nil, fmt.Errorf("kvstore: memory limit %d too small for %d shards of %dB pages",
			cfg.MemoryLimit, nShards, cfg.SlabPageSize)
	}
	if cfg.MaxItemSize > cfg.SlabPageSize {
		return nil, fmt.Errorf("kvstore: max item size %d exceeds slab page size %d", cfg.MaxItemSize, cfg.SlabPageSize)
	}
	if cfg.SlabPageSize > maxItemBytes {
		return nil, fmt.Errorf("kvstore: slab page size %d exceeds %d, the largest item whose value length the header can hold",
			cfg.SlabPageSize, maxItemBytes)
	}

	st := &Store{cfg: cfg, mask: uint64(nShards - 1), clock: cfg.Clock}
	st.startUnix = st.now()
	for i := 0; i < nShards; i++ {
		alloc, err := newSlabAllocator(cfg.BaseChunkSize, cfg.GrowthFactor, cfg.SlabPageSize, perShard)
		if err != nil {
			return nil, err
		}
		st.shards = append(st.shards, &lockedShard{
			s: newShard(alloc, casIDs{stride: uint64(nShards), base: uint64(i) + 1}, cfg.MaxItemSize, cfg.EvictionsEnabled),
		})
	}
	return st, nil
}

// Config returns the effective configuration (after defaulting).
func (st *Store) Config() Config { return st.cfg }

// Clock is the clock the store reads; a server built on the store
// times its sessions with it too.
func (st *Store) Clock() clock.Clock { return st.clock }

// now is the clock's time in whole unix seconds, the store's unit.
func (st *Store) now() int64 { return int64(st.clock.Now() / sim.Ns(time.Second)) }

// lazyNow is one store call's time, read from the clock at most once
// and only when something needs it: an item that has an expiry, a
// pending delayed flush, or a relative exptime. A get, set or delete
// of an item that never expires, with no flush pending, reads no clock.
type lazyNow struct {
	st   *Store
	t    int64
	read bool
}

// lazyNow starts one call's time; nothing is read yet.
func (st *Store) lazyNow() lazyNow { return lazyNow{st: st} }

// get is the call's time in unix seconds, read on first use.
func (n *lazyNow) get() int64 {
	if !n.read {
		n.t, n.read = n.st.now(), true
	}
	return n.t
}

// shardIndex uses the upper hash bits for shard selection so shard
// choice stays independent of the table's bucket choice (which uses low
// bits).
func (st *Store) shardIndex(hash uint64) uint32 {
	return uint32((hash >> 48) & st.mask)
}

// locate hashes key — the one hash of a store call — and returns its
// shard with the hash for the shard's table.
func (st *Store) locate(key []byte) (*lockedShard, uint64) {
	hash := fnv1a64(key)
	return st.shards[st.shardIndex(hash)], hash
}

// keyBytes views a string key as the byte slice the shards are keyed
// by, without copying. The store only reads a key and keeps no
// reference past the call (the chunk holds its own copy), so the view
// never outlives or mutates the string.
func keyBytes(key string) []byte {
	return unsafe.Slice(unsafe.StringData(key), len(key))
}

// expiredNow is the absolute-expiry sentinel for "already expired":
// item.expired holds for it at every clock value, including the t=0 a
// fresh injected sim clock starts at. (The previous encoding, unix
// second 1, was live for a store whose clock had not yet passed 1 —
// negative-exptime items survived under sim clocks.)
const expiredNow int64 = -1

// expiryToAbs converts a memcached exptime to an absolute unix time:
// 0 = never, negative = already expired, <= 30 days = relative seconds,
// otherwise already absolute.
func expiryToAbs(exptime int64, now *lazyNow) int64 {
	const thirtyDays = 60 * 60 * 24 * 30
	if exptime == 0 {
		return 0
	}
	if exptime < 0 {
		return expiredNow // memcached treats negatives as "immediately"
	}
	if exptime <= thirtyDays {
		return now.get() + exptime
	}
	return exptime
}

// Entry is the result of a Get. A caller that needs an item's flags
// reads it through GetBatchInto, whose results carry them.
type Entry struct {
	Value []byte
	CAS   uint64
}

// Get returns a copy of the stored entry: one allocation per hit, the
// caller's to keep. The zero-allocation read is GetInto.
func (st *Store) Get(key string) (Entry, bool) {
	v, e, ok := st.GetInto(nil, key)
	e.Value = v
	return e, ok
}

// GetInto appends the value to dst and returns the extended slice,
// avoiding a per-hit allocation; it never pins.
//
//kv3d:hotpath
func (st *Store) GetInto(dst []byte, key string) ([]byte, Entry, bool) {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	sh.mu.Lock()
	sh.s.stats.ReadLocks++
	out, _, cas, _, ok := sh.s.getOrPin(dst, k, hash, &now, math.MaxInt)
	sh.mu.Unlock()
	return out, Entry{CAS: cas}, ok
}

// Pin holds the chunk of a value GetBatchInto returned pinned, for a
// caller that sends it straight from slab memory: while it is held the
// bytes stay as they were, whatever happens to the key — a set, delete,
// flush, expiry or eviction takes effect, but the chunk is not rewritten
// or reused until the last Unpin. It is a value (shard and handle), so
// pinning allocates nothing. The zero Pin holds nothing.
type Pin struct {
	sh *lockedShard
	h  handle
}

// Unpin releases a Pin from GetBatchInto; the value it pinned must not be
// read afterwards. Unpinning the zero Pin does nothing.
//
//kv3d:hotpath
func (st *Store) Unpin(p Pin) {
	if p.sh == nil {
		return
	}
	p.sh.mu.Lock()
	p.sh.s.unpin(p.h)
	p.sh.mu.Unlock()
}

// Verb selects the guard Put, PutBatch, Reserve and Commit run under
// the shard lock.
type Verb uint8

const (
	VerbSet     Verb = iota // store unconditionally
	VerbAdd                 // store only if absent
	VerbReplace             // store only if present
	VerbCAS                 // store only if the entry's CAS id equals casID
)

// Put stores key=value under verb's guard and returns the CAS id the
// shard assigned to the stored item under its lock, so a caller that
// must report the new CAS id (the binary protocol) need not read the
// key back. Set stores through it; the protocols store through
// PutBatch, or Reserve and Commit for a large value. casID is consulted
// by VerbCAS only.
//
//kv3d:hotpath
func (st *Store) Put(verb Verb, key string, value []byte, flags uint32, exptime int64, casID uint64) (newCAS uint64, err error) {
	return st.PutBytes(verb, keyBytes(key), value, flags, exptime, casID)
}

// PutBytes is Put keyed by a byte slice, so a caller holding the key
// as bytes — a binary incr creating its key — need not convert it.
// Both key and value are copied into the item's chunk; neither is
// retained.
//
//kv3d:hotpath
func (st *Store) PutBytes(verb Verb, key, value []byte, flags uint32, exptime int64, casID uint64) (newCAS uint64, err error) {
	sh, hash := st.locate(key)
	now := st.lazyNow()
	abs := expiryToAbs(exptime, &now)
	sh.mu.Lock()
	newCAS, err = sh.s.put(verb, key, hash, value, flags, abs, casID, &now)
	sh.mu.Unlock()
	return newCAS, err
}

// Reservation is an item's chunk that Reserve set aside for a value
// still arriving. It is a value (shard, handle, the key's hash and the
// guard to commit under), so reserving allocates nothing. The zero
// Reservation holds nothing.
type Reservation struct {
	sh    *lockedShard
	h     handle
	verb  Verb
	hash  uint64
	casID uint64
}

// Reserve is the first half of a store whose value the caller writes
// straight into slab memory — from a socket, say — instead of handing
// Put a copy. It checks verb's guard (a store Put would refuse is
// refused here, having allocated and evicted nothing), then allocates
// the chunk of an item of key and an n-byte value as Put would, and
// returns its value bytes for the caller to fill outside the lock. The
// chunk is pinned and in no index until Commit: eviction, page steals
// and the crawler pass over it, and the key's old value stays readable.
// Every Reservation Reserve returns ends with one Cancel.
//
//kv3d:hotpath
func (st *Store) Reserve(verb Verb, key []byte, n int, casID uint64) (Reservation, []byte, error) {
	sh, hash := st.locate(key)
	now := st.lazyNow()
	sh.mu.Lock()
	h, fresh, err := sh.s.reserve(verb, key, hash, n, casID, &now)
	var value []byte
	if err == nil {
		value = sh.s.alloc.chunk(h).value()
	}
	sh.mu.Unlock()
	if err != nil {
		return Reservation{}, nil, err
	}
	if fresh {
		prefault(value)
	}
	return Reservation{sh: sh, h: h, verb: verb, hash: hash, casID: casID}, value[:n:n], nil
}

// Commit stores the reserved item, its value as the caller left it, if
// the reservation's guard still holds: it replaces the key's old item
// and assigns flags, expiry and a CAS id, which it returns, as Put
// does. The chunk stays pinned, committed or refused, until Cancel, so
// the caller can still read the value it wrote — to replicate it, say.
//
//kv3d:hotpath
func (st *Store) Commit(r Reservation, flags uint32, exptime int64) (newCAS uint64, err error) {
	now := st.lazyNow()
	abs := expiryToAbs(exptime, &now)
	r.sh.mu.Lock()
	newCAS, err = r.sh.s.commit(r.h, r.hash, r.verb, r.casID, flags, abs, &now)
	r.sh.mu.Unlock()
	return newCAS, err
}

// Cancel ends a reservation: one never committed, or whose commit was
// refused, is freed; a committed item stays, and only the hold on its
// chunk goes, as Unpin lets go of a Pin. Cancelling the zero
// Reservation does nothing.
//
//kv3d:hotpath
func (st *Store) Cancel(r Reservation) { st.Unpin(Pin{sh: r.sh, h: r.h}) }

// Set unconditionally stores the value.
//
//kv3d:hotpath
func (st *Store) Set(key string, value []byte, flags uint32, exptime int64) error {
	_, err := st.Put(VerbSet, key, value, flags, exptime, 0)
	return err
}

// Append concatenates extra after the existing value.
func (st *Store) Append(key string, extra []byte) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	sh.mu.Lock()
	err := sh.s.appendValue(k, hash, extra, &now, false)
	sh.mu.Unlock()
	return err
}

// Prepend concatenates extra before the existing value.
func (st *Store) Prepend(key string, extra []byte) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	sh.mu.Lock()
	err := sh.s.appendValue(k, hash, extra, &now, true)
	sh.mu.Unlock()
	return err
}

// IncrDecr adds delta to (incr) or subtracts it from (floored at 0) a
// decimal value, returning the new value and the CAS id assigned to it.
func (st *Store) IncrDecr(key string, delta uint64, incr bool) (value, cas uint64, err error) {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	sh.mu.Lock()
	value, cas, err = sh.s.incrDecr(k, hash, delta, incr, &now)
	sh.mu.Unlock()
	return value, cas, err
}

// Incr adds delta to a decimal value, returning the new value.
func (st *Store) Incr(key string, delta uint64) (uint64, error) {
	v, _, err := st.IncrDecr(key, delta, true)
	return v, err
}

// Delete removes a key.
func (st *Store) Delete(key string) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	sh.mu.Lock()
	err := sh.s.delete(k, hash, &now)
	sh.mu.Unlock()
	return err
}

// Touch updates a key's expiry.
func (st *Store) Touch(key string, exptime int64) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.lazyNow()
	abs := expiryToAbs(exptime, &now)
	sh.mu.Lock()
	err := sh.s.touch(k, hash, abs, &now)
	sh.mu.Unlock()
	return err
}

// FlushAll is flush_all. With no delay every item stored so far is
// dead when it returns, and nothing stored afterwards is touched. With
// a delay the flush is due at now+delay seconds and each shard applies
// it at its first call at or after that time, to everything stored
// before that call. One delayed flush can be pending; a new one
// replaces it, an immediate one leaves it in place (ROBUSTNESS.md).
func (st *Store) FlushAll(delay int64) {
	now := st.lazyNow()
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.s.fireFlush(&now)
		if delay > 0 {
			sh.s.flushAt = dueAt(now.get(), delay)
		} else {
			sh.s.flushNow()
		}
		sh.mu.Unlock()
	}
}

// dueAt is now+delay, saturating: a client may send any delay.
func dueAt(now, delay int64) int64 {
	if at := now + delay; at >= now {
		return at
	}
	return math.MaxInt64
}

// ItemCount reports the number of resident items (some may be expired
// but not yet reaped, as in memcached).
func (st *Store) ItemCount() int {
	total := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		total += sh.s.itemCount()
		sh.mu.Unlock()
	}
	return total
}

// Stats aggregates counters and slab-class occupancy across shards, in
// one lock pass: the counters and the classes describe the same moment
// of each shard.
func (st *Store) Stats() Stats {
	var out Stats
	for _, sh := range st.shards {
		sh.mu.Lock()
		a := sh.s.alloc
		if out.Classes == nil {
			out.Classes = make([]SlabClassStats, a.numClasses())
			for i := range out.Classes {
				out.Classes[i] = SlabClassStats{ClassID: i + 1, ChunkSize: a.chunkSize(i)}
			}
		}
		for i := range a.classes {
			out.Classes[i].Pages += len(a.classes[i].pages)
			out.Classes[i].UsedChunks += a.classes[i].allocated
			out.Classes[i].FreeChunks += a.classes[i].freeCount
		}
		s := sh.s.stats
		out.GetHits += s.GetHits
		out.GetMisses += s.GetMisses
		out.Sets += s.Sets
		out.DeleteHits += s.DeleteHits
		out.DeleteMisses += s.DeleteMiss
		out.CasHits += s.CasHits
		out.CasMisses += s.CasMisses
		out.CasBadval += s.CasBadval
		out.IncrHits += s.IncrHits
		out.IncrMisses += s.IncrMisses
		out.DecrHits += s.DecrHits
		out.DecrMisses += s.DecrMisses
		out.TouchHits += s.TouchHits
		out.TouchMisses += s.TouchMisses
		out.Evictions += s.Evictions
		out.Expired += s.Expired
		out.SlabReassigns += s.SlabReassigns
		out.TotalItems += s.TotalItems
		out.BytesUsed += s.BytesUsed
		out.CurrItems += uint64(sh.s.itemCount())
		out.SlabBytes += a.pageBytes()
		sh.mu.Unlock()
	}
	// Drop classes with no pages anywhere to keep the report readable.
	kept := out.Classes[:0]
	for _, c := range out.Classes {
		if c.Pages > 0 {
			kept = append(kept, c)
		}
	}
	out.Classes = kept
	out.Shards = len(st.shards)
	out.UptimeSeconds = st.now() - st.startUnix
	return out
}

// Stats is the aggregated counter snapshot exposed by the stats verb.
type Stats struct {
	GetHits, GetMisses       uint64
	Sets                     uint64
	DeleteHits, DeleteMisses uint64
	CasHits, CasMisses       uint64
	CasBadval                uint64
	IncrHits, IncrMisses     uint64
	DecrHits, DecrMisses     uint64
	TouchHits, TouchMisses   uint64
	Evictions, Expired       uint64
	SlabReassigns            uint64
	TotalItems, CurrItems    uint64
	BytesUsed                int64
	SlabBytes                int64
	Shards                   int
	UptimeSeconds            int64
	// Classes holds the slab classes with at least one page (the
	// "stats slabs" view).
	Classes []SlabClassStats
}

// SlabClassStats describes one slab size class, aggregated across
// shards.
type SlabClassStats struct {
	ClassID    int
	ChunkSize  int
	Pages      int
	UsedChunks int
	FreeChunks int
}

// HitRate returns get_hits / (get_hits+get_misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.GetHits + s.GetMisses
	if total == 0 {
		return 0
	}
	return float64(s.GetHits) / float64(total)
}
