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
// buffer of a GetBatchInto call: the value is dst[Start:End].
type BatchResult struct {
	Start, End int
	Flags      uint32
	CAS        uint64
	Found      bool
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
// once, so an N-key batch costs at most min(N, Shards) acquisitions.
//
// The returned slices must be consumed before the next call that
// reuses dst, out or scr.
//
//kv3d:hotpath
func (st *Store) GetBatchInto(dst []byte, keys [][]byte, out []BatchResult, scr *BatchScratch) ([]byte, []BatchResult) {
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
	now := st.now()
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
			v, flags, cas, ok := sh.s.getInto(dst, keys[ki], hashes[ki], now)
			dst = v
			out[ki] = BatchResult{Start: start, End: len(dst), Flags: flags, CAS: cas, Found: ok}
		}
		sh.mu.Unlock()
		pos += int(c)
	}
	return dst, out
}
