package kvstore

// Batched GETs and stores. A multiget that executes its keys one at a
// time re-acquires a shard lock per key — for an N-key request on an
// S-shard store that is N acquisitions where S would do; so does a
// pipelined burst of stores. GetBatchInto and PutBatch group the keys
// by shard (the placement locate uses, one grouping for both), take
// each involved shard's lock exactly once, serve all of that shard's
// keys under it in request order, and report results in request order.
// Keys and values stay slices of the caller's buffers, results are
// written in place, and all grouping state lives in a caller-owned
// scratch, so a steady-state batch allocates nothing.

// BatchResult locates one key's value inside the shared destination
// buffer of a GetBatchInto call: the value is dst[Start:End] — unless
// Pin holds it, and then the value is Pinned, a read-only view of the
// item's chunk that the caller must Unpin once it has sent it.
type BatchResult struct {
	Start, End int
	Flags      uint32
	CAS        uint64
	Found      bool
	Pinned     []byte
	Pin        Pin
}

// BatchPut is one store of a PutBatch call: Verb's guard (CAS is the id
// VerbCAS expects), the key and value, which are copied into the item's
// chunk and not retained, flags and a memcached exptime. PutBatch sets
// NewCAS to the id it gave the stored item, or Err to why it refused.
type BatchPut struct {
	Verb       Verb
	Key, Value []byte
	Flags      uint32
	Exptime    int64
	CAS        uint64
	NewCAS     uint64
	Err        error
}

// BatchScratch holds the reusable grouping state of GetBatchInto and
// PutBatch. The zero value is ready to use; reusing one across calls
// makes the steady-state batch paths allocation-free. A BatchScratch
// must not be shared between concurrent callers.
type BatchScratch struct {
	hashes []uint64
	counts []int32
	cursor []int32
	order  []int32
}

// hashesFor sizes the scratch for n keys over nShards shards, without
// allocating once the high-water mark is reached, and returns the n
// hashes for the caller to fill before byShard.
func (scr *BatchScratch) hashesFor(n, nShards int) []uint64 {
	if cap(scr.hashes) < n {
		scr.hashes = make([]uint64, n)
		scr.order = make([]int32, n)
	}
	if cap(scr.counts) < nShards {
		scr.counts = make([]int32, nShards)
		scr.cursor = make([]int32, nShards)
	}
	return scr.hashes[:n]
}

// byShard groups the n keys whose hashes hashesFor holds by shard: the
// keys of shard s are the counts[s] indices that follow those of the
// shards before it in order, in request order, so two writes to one key
// keep theirs.
func (st *Store) byShard(scr *BatchScratch, n int) (counts, order []int32) {
	hashes := scr.hashes[:n]
	counts = scr.counts[:len(st.shards)]
	cursor := scr.cursor[:len(st.shards)]
	order = scr.order[:n]
	for i := range counts {
		counts[i] = 0
	}
	for _, h := range hashes {
		counts[st.shardIndex(h)]++
	}
	sum := int32(0)
	for s, c := range counts {
		cursor[s] = sum
		sum += c
	}
	for i, h := range hashes {
		s := st.shardIndex(h)
		order[cursor[s]] = int32(i)
		cursor[s]++
	}
	return counts, order
}

// GetBatchInto is the zero-alloc batched lookup for the server hot
// path: keys are byte-slice tokens, every found value is appended to
// dst, and out (reused, resliced to len(keys)) records each key's
// value span, flags, CAS and hit/miss in request order (duplicate keys
// get duplicate results). Each involved shard's lock is acquired exactly
// once, so an N-key batch costs at most min(N, Shards) acquisitions,
// and the clock is read at most once, as for a single-key call.
//
// A hit that would take dst to pinFrom bytes or more is pinned and not
// copied: its result carries a read-only view of the item's chunk and
// the Pin the caller must pass to Unpin once it has sent it. So a value
// of pinFrom bytes or more is always pinned, and dst stays under
// pinFrom bytes however many keys hit, except for a value whose chunk
// already holds the most pins it can count (63), which is copied
// (math.MaxInt copies every value).
//
// The returned slices must be consumed before the next call that
// reuses dst, out or scr.
//
//kv3d:hotpath
func (st *Store) GetBatchInto(dst []byte, keys [][]byte, out []BatchResult, scr *BatchScratch, pinFrom int) ([]byte, []BatchResult) {
	n := len(keys)
	if cap(out) < n {
		out = make([]BatchResult, n)
	}
	out = out[:n]
	if n == 0 {
		return dst, out
	}
	hashes := scr.hashesFor(n, len(st.shards))
	for i, k := range keys {
		hashes[i] = fnv1a64(k)
	}
	counts, order := st.byShard(scr, n)
	now := st.lazyNow()
	pos := 0
	for s, c := range counts {
		if c == 0 {
			continue
		}
		sh := st.shards[s]
		sh.mu.Lock()
		sh.s.stats.ReadLocks++
		for _, ki := range order[pos : pos+int(c)] {
			r := &out[ki] // filled field by field: a struct built and copied in costs a duffcopy per key
			r.Start = len(dst)
			v, flags, cas, h, ok := sh.s.getOrPin(dst, keys[ki], hashes[ki], &now, pinFrom-len(dst))
			r.Flags, r.CAS, r.Found = flags, cas, ok
			if h != 0 {
				r.End, r.Pinned, r.Pin = r.Start, v, Pin{sh: sh, h: h}
			} else {
				dst, r.End, r.Pinned, r.Pin = v, len(v), nil, Pin{}
			}
		}
		sh.mu.Unlock()
		pos += int(c)
	}
	return dst, out
}

// PutBatch stores every put of puts under its verb's guard, as Put
// would one after another, and sets each put's NewCAS or Err in place.
// Each involved shard's lock is acquired exactly once and its puts run
// in request order under it, so every put sees the ones before it to
// the same key — an add after a set of its key is refused, a cas may
// name the id a set earlier in the batch was given — and, since CAS ids
// are drawn per shard, each put gets the id it would get alone. The
// clock is read at most once. A put's key and value are copied into the
// item's chunk; nothing of puts is retained.
//
//kv3d:hotpath
func (st *Store) PutBatch(puts []BatchPut, scr *BatchScratch) {
	n := len(puts)
	if n == 0 {
		return
	}
	hashes := scr.hashesFor(n, len(st.shards))
	for i := range puts {
		hashes[i] = fnv1a64(puts[i].Key)
	}
	counts, order := st.byShard(scr, n)
	now := st.lazyNow()
	pos := 0
	for s, c := range counts {
		if c == 0 {
			continue
		}
		sh := st.shards[s]
		sh.mu.Lock()
		for _, i := range order[pos : pos+int(c)] {
			p := &puts[i]
			p.NewCAS, p.Err = sh.s.put(p.Verb, p.Key, hashes[i], p.Value, p.Flags, expiryToAbs(p.Exptime, &now), p.CAS, &now)
		}
		sh.mu.Unlock()
		pos += int(c)
	}
}
