package kvstore

// GetWithExpiry returns a copy of the entry plus its absolute expiry
// (unix seconds, 0 = never) — what a migration stream needs to re-create
// the item on another node with its TTL intact. Unlike Get it neither
// counts a hit/miss nor promotes the item in the eviction policy: a
// background scan must not skew foreground cache behaviour.
func (st *Store) GetWithExpiry(key string) (Entry, int64, bool) {
	k := keyBytes(key)
	sh, hash := st.locate(k)
	now := st.clock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, c := sh.s.live(k, hash, now)
	if h == 0 {
		return Entry{}, 0, false
	}
	out := make([]byte, c.valueLen())
	copy(out, c.value())
	return Entry{Value: out, Flags: c.flags(), CAS: c.casID()}, c.expireAt(), true
}

// AppendKeys appends every live (non-expired, non-flushed) key to dst
// and returns the extended slice. It takes each shard lock once, so the
// walk is consistent per shard but not across shards — exactly the
// guarantee key-range migration needs: a snapshot listing to stream
// from, with per-key re-reads at send time deciding what is still
// current. Each key is copied out of its chunk, so the result aliases
// no store memory.
func (st *Store) AppendKeys(dst []string) []string {
	now := st.clock()
	for _, ls := range st.shards {
		ls.mu.Lock()
		ls.s.fireFlush(now)
		ls.s.table.forEach(func(_ handle, c chunk) {
			if !ls.s.dead(c, now) {
				dst = append(dst, string(c.key()))
			}
		})
		ls.mu.Unlock()
	}
	return dst
}
