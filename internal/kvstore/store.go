package kvstore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ConcurrencyMode selects the locking design of a Store.
type ConcurrencyMode int

const (
	// ModeGlobal serializes every operation behind one mutex, matching
	// memcached 1.4's global cache lock.
	ModeGlobal ConcurrencyMode = iota
	// ModeStriped partitions the keyspace into independently locked
	// shards, matching memcached 1.6's fine-grained locking.
	ModeStriped
)

func (m ConcurrencyMode) String() string {
	switch m {
	case ModeGlobal:
		return "global"
	case ModeStriped:
		return "striped"
	default:
		return "unknown"
	}
}

// Clock abstracts wall time (unix seconds) so tests and simulations can
// drive expiry deterministically.
type Clock func() int64

// Config configures a Store. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// MemoryLimit is the total slab budget in bytes across all shards.
	MemoryLimit int64
	// Mode selects global vs striped locking.
	Mode ConcurrencyMode
	// Shards is the stripe count for ModeStriped (power of two enforced).
	Shards int
	// Policy selects strict LRU or Bags eviction.
	Policy EvictionPolicy
	// EvictionsEnabled allows evicting live items under memory pressure
	// (memcached -M disables this and errors instead).
	EvictionsEnabled bool
	// MaxItemSize bounds key+value+overhead bytes for one item.
	MaxItemSize int
	// BaseChunkSize, GrowthFactor, SlabPageSize tune the slab ladder.
	BaseChunkSize int
	GrowthFactor  float64
	SlabPageSize  int
	// Clock supplies unix seconds; defaults to WallClock. Simulations
	// and experiments must inject a deterministic clock (LINTING.md).
	Clock Clock
}

// DefaultConfig returns a memcached-like configuration with the given
// memory limit.
func DefaultConfig(memoryLimit int64) Config {
	return Config{
		MemoryLimit:      memoryLimit,
		Mode:             ModeStriped,
		Shards:           8,
		Policy:           PolicyLRU,
		EvictionsEnabled: true,
		MaxItemSize:      DefaultMaxItemSize,
		BaseChunkSize:    DefaultBaseChunkSize,
		GrowthFactor:     DefaultGrowthFactor,
		SlabPageSize:     DefaultSlabPageSize,
	}
}

// casCounter issues store-wide unique CAS ids.
type casCounter struct{ n atomic.Uint64 }

func (c *casCounter) next() uint64 { return c.n.Add(1) }

// last is the newest id issued so far.
func (c *casCounter) last() uint64 { return c.n.Load() }

// Store is the concurrent, memcached-compatible key-value store.
type Store struct {
	cfg       Config
	shards    []*lockedShard
	mask      uint64
	clock     Clock
	cas       casCounter
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
		cfg.Clock = WallClock
	}
	nShards := 1
	if cfg.Mode == ModeStriped {
		nShards = cfg.Shards
		if nShards <= 0 {
			nShards = 8
		}
		// Round up to a power of two for mask addressing.
		p := 1
		for p < nShards {
			p <<= 1
		}
		nShards = p
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

	st := &Store{cfg: cfg, mask: uint64(nShards - 1), clock: cfg.Clock, startUnix: cfg.Clock()}
	for i := 0; i < nShards; i++ {
		alloc, err := newSlabAllocator(cfg.BaseChunkSize, cfg.GrowthFactor, cfg.SlabPageSize, perShard)
		if err != nil {
			return nil, err
		}
		st.shards = append(st.shards, &lockedShard{
			s: newShard(alloc, cfg.Policy, &st.cas, cfg.MaxItemSize, cfg.EvictionsEnabled),
		})
	}
	return st, nil
}

// Config returns the effective configuration (after defaulting).
func (st *Store) Config() Config { return st.cfg }

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
func (st *Store) expiryToAbs(exptime int64) int64 {
	const thirtyDays = 60 * 60 * 24 * 30
	if exptime == 0 {
		return 0
	}
	if exptime < 0 {
		return expiredNow // memcached treats negatives as "immediately"
	}
	if exptime <= thirtyDays {
		return st.clock() + exptime
	}
	return exptime
}

// Entry is the result of a Get.
type Entry struct {
	Value []byte
	Flags uint32
	CAS   uint64
}

// Get returns a copy of the stored entry.
//
//kv3d:hotpath
func (st *Store) Get(key string) (Entry, bool) {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	sh.mu.Lock()
	sh.s.stats.ReadLocks++
	v, flags, cas, ok := sh.s.get(k, hash, now)
	sh.mu.Unlock()
	return Entry{Value: v, Flags: flags, CAS: cas}, ok
}

// GetInto appends the value to dst and returns the extended slice,
// avoiding a per-hit allocation on the server hot path.
//
//kv3d:hotpath
//kv3d:aliases dst
func (st *Store) GetInto(dst []byte, key string) ([]byte, Entry, bool) {
	return st.GetIntoBytes(dst, keyBytes(key))
}

// GetIntoBytes is GetInto keyed by a byte slice, so the protocol layer
// can serve a GET straight from the parsed key token.
//
//kv3d:hotpath
//kv3d:aliases dst
func (st *Store) GetIntoBytes(dst, key []byte) ([]byte, Entry, bool) {
	sh, hash := st.locate(key)
	now := st.clock()
	sh.mu.Lock()
	sh.s.stats.ReadLocks++
	out, flags, cas, ok := sh.s.getInto(dst, key, hash, now)
	sh.mu.Unlock()
	return out, Entry{Flags: flags, CAS: cas}, ok
}

// Verb selects the guard Put runs under the shard lock.
type Verb uint8

const (
	VerbSet     Verb = iota // store unconditionally
	VerbAdd                 // store only if absent
	VerbReplace             // store only if present
	VerbCAS                 // store only if the entry's CAS id equals casID
)

// Put stores key=value under verb's guard and returns the CAS id the
// shard assigned to the stored item under its lock. It is the one store
// entry point behind Set, Add, Replace and CAS; callers that must
// report the new CAS id (the binary protocol) use it directly instead
// of reading the key back. casID is consulted by VerbCAS only.
//
//kv3d:hotpath
func (st *Store) Put(verb Verb, key string, value []byte, flags uint32, exptime int64, casID uint64) (newCAS uint64, err error) {
	return st.PutBytes(verb, keyBytes(key), value, flags, exptime, casID)
}

// PutBytes is Put keyed by a byte slice, so a protocol session can
// store straight from the request's key token or frame bytes. Both key
// and value are copied into the item's chunk; neither is retained.
//
//kv3d:hotpath
func (st *Store) PutBytes(verb Verb, key, value []byte, flags uint32, exptime int64, casID uint64) (newCAS uint64, err error) {
	sh, hash := st.locate(key)
	now := st.clock()
	abs := st.expiryToAbs(exptime)
	sh.mu.Lock()
	switch verb {
	case VerbAdd:
		newCAS, err = sh.s.add(key, hash, value, flags, abs, now)
	case VerbReplace:
		newCAS, err = sh.s.replace(key, hash, value, flags, abs, now)
	case VerbCAS:
		newCAS, err = sh.s.cas(key, hash, value, flags, abs, casID, now)
	default:
		newCAS, err = sh.s.set(key, hash, value, flags, abs, now)
	}
	sh.mu.Unlock()
	return newCAS, err
}

// Set unconditionally stores the value.
//
//kv3d:hotpath
func (st *Store) Set(key string, value []byte, flags uint32, exptime int64) error {
	_, err := st.Put(VerbSet, key, value, flags, exptime, 0)
	return err
}

// Add stores only if absent.
func (st *Store) Add(key string, value []byte, flags uint32, exptime int64) error {
	_, err := st.Put(VerbAdd, key, value, flags, exptime, 0)
	return err
}

// Replace stores only if present.
func (st *Store) Replace(key string, value []byte, flags uint32, exptime int64) error {
	_, err := st.Put(VerbReplace, key, value, flags, exptime, 0)
	return err
}

// CAS stores only if the caller's CAS id matches the current one.
func (st *Store) CAS(key string, value []byte, flags uint32, exptime int64, cas uint64) error {
	_, err := st.Put(VerbCAS, key, value, flags, exptime, cas)
	return err
}

// Append concatenates extra after the existing value.
func (st *Store) Append(key string, extra []byte) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	sh.mu.Lock()
	err := sh.s.appendValue(k, hash, extra, now, false)
	sh.mu.Unlock()
	return err
}

// Prepend concatenates extra before the existing value.
func (st *Store) Prepend(key string, extra []byte) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	sh.mu.Lock()
	err := sh.s.appendValue(k, hash, extra, now, true)
	sh.mu.Unlock()
	return err
}

// IncrDecr adds delta to (incr) or subtracts it from (floored at 0) a
// decimal value, returning the new value and the CAS id assigned to it.
func (st *Store) IncrDecr(key string, delta uint64, incr bool) (value, cas uint64, err error) {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	sh.mu.Lock()
	value, cas, err = sh.s.incrDecr(k, hash, delta, incr, now)
	sh.mu.Unlock()
	return value, cas, err
}

// Incr adds delta to a decimal value, returning the new value.
func (st *Store) Incr(key string, delta uint64) (uint64, error) {
	v, _, err := st.IncrDecr(key, delta, true)
	return v, err
}

// Decr subtracts delta from a decimal value (floored at 0).
func (st *Store) Decr(key string, delta uint64) (uint64, error) {
	v, _, err := st.IncrDecr(key, delta, false)
	return v, err
}

// Delete removes a key.
func (st *Store) Delete(key string) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	sh.mu.Lock()
	err := sh.s.delete(k, hash, now)
	sh.mu.Unlock()
	return err
}

// Touch updates a key's expiry.
func (st *Store) Touch(key string, exptime int64) error {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	abs := st.expiryToAbs(exptime)
	sh.mu.Lock()
	err := sh.s.touch(k, hash, abs, now)
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
	now := st.clock()
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.s.fireFlush(now)
		if delay > 0 {
			sh.s.flushAt = dueAt(now, delay)
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

// Stats aggregates counters across shards.
func (st *Store) Stats() Stats {
	var out Stats
	for _, sh := range st.shards {
		sh.mu.Lock()
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
		out.SlabBytes += sh.s.alloc.pageBytes()
		sh.mu.Unlock()
	}
	out.Shards = len(st.shards)
	out.UptimeSeconds = st.clock() - st.startUnix
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
}

// SlabClassStats describes one slab size class, aggregated across
// shards (the "stats slabs" view).
type SlabClassStats struct {
	ClassID    int
	ChunkSize  int
	Pages      int
	UsedChunks int
	FreeChunks int
}

// SlabStats reports per-class slab usage across all shards.
func (st *Store) SlabStats() []SlabClassStats {
	var out []SlabClassStats
	for _, sh := range st.shards {
		sh.mu.Lock()
		a := sh.s.alloc
		if out == nil {
			out = make([]SlabClassStats, a.numClasses())
			for i := range out {
				out[i] = SlabClassStats{ClassID: i + 1, ChunkSize: a.chunkSize(i)}
			}
		}
		for i := range a.classes {
			out[i].Pages += len(a.classes[i].pages)
			out[i].UsedChunks += a.classes[i].allocated
			out[i].FreeChunks += a.classes[i].freeCount
		}
		sh.mu.Unlock()
	}
	// Drop classes with no pages anywhere to keep the report readable.
	kept := out[:0]
	for _, c := range out {
		if c.Pages > 0 {
			kept = append(kept, c)
		}
	}
	return kept
}

// HitRate returns get_hits / (get_hits+get_misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.GetHits + s.GetMisses
	if total == 0 {
		return 0
	}
	return float64(s.GetHits) / float64(total)
}
