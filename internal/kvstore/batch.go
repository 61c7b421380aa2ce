package kvstore

// Batched GETs. A multiget that executes its keys one at a time
// re-acquires a shard lock per key — for an N-key request on an S-shard
// store that is N acquisitions where S would do. GetBatchInto groups the
// keys by shard (the placement locate uses), takes each involved shard's
// lock exactly once, serves all of that shard's keys under it, and
// returns results in request order. Keys stay tokens of the command
// line, values append into one caller-owned buffer, and all grouping
// state lives in a caller-owned scratch, so a steady-state multiget
// allocates nothing.

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

// BatchScratch holds the reusable grouping state of GetBatchInto. The
// zero value is ready to use; reusing one across calls makes the
// steady-state batch path allocation-free. A BatchScratch must not be
// shared between concurrent callers.
type BatchScratch struct {
	hashes []uint64
	counts []int32
	cursor []int32
	order  []int32
}

// grow sizes the scratch for n keys over nShards shards without
// allocating once the high-water mark is reached.
func (scr *BatchScratch) grow(n, nShards int) {
	if cap(scr.hashes) < n {
		scr.hashes = make([]uint64, n)
		scr.order = make([]int32, n)
	}
	if cap(scr.counts) < nShards {
		scr.counts = make([]int32, nShards)
		scr.cursor = make([]int32, nShards)
	}
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
	scr.grow(n, len(st.shards))
	hashes := scr.hashes[:n]
	counts := scr.counts[:len(st.shards)]
	cursor := scr.cursor[:len(st.shards)]
	order := scr.order[:n]
	for i := range counts {
		counts[i] = 0
	}
	for i, k := range keys {
		hashes[i] = fnv1a64(k)
		counts[st.shardIndex(hashes[i])]++
	}
	sum := int32(0)
	for s, c := range counts {
		cursor[s] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		s := st.shardIndex(hashes[i])
		order[cursor[s]] = int32(i)
		cursor[s]++
	}
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
			start := len(dst)
			v, flags, cas, h, ok := sh.s.getOrPin(dst, keys[ki], hashes[ki], &now, pinFrom-len(dst))
			r := BatchResult{Start: start, End: start, Flags: flags, CAS: cas, Found: ok}
			if h != 0 {
				r.Pinned, r.Pin = v, Pin{sh: sh, h: h}
			} else {
				dst, r.End = v, len(v)
			}
			out[ki] = r
		}
		sh.mu.Unlock()
		pos += int(c)
	}
	return dst, out
}
