package kvstore

// Eviction is CLOCK, the store's one policy: a read only sets the item's
// referenced bit, and a hand per (shard, class) sweeps the class's
// chunks in place, giving a marked item a second chance. Nothing is
// reordered and nothing is linked, so a hit writes no other chunk and an
// item carries no eviction state beyond that bit. Everything here runs
// under the shard lock.

// maxSecondChances bounds one victim call: this many referenced items
// have their bit cleared and are passed over, and the next unpinned item
// goes whatever its bit.
const maxSecondChances = 8

// onAccess records a hit. The bit is written only when it is clear, so
// rereading a hot item does not store to its header again.
func onAccess(c chunk) {
	if !c.referenced() {
		c.setReferenced()
	}
}

// victim moves class i's hand to the next eviction candidate and returns
// it, or zero if the class holds no item that can go.
//
// The hand sweeps the class's pages in the order the class acquired
// them, and each page's chunks in address order. It passes over chunks
// with key length 0 (free, or never handed out) and pinned chunks, which
// could not be reused until their senders let go. An item whose
// referenced bit is set has it cleared and is passed over — its second
// chance — but at most maxSecondChances times per call; the next
// unpinned item after that is the victim. A call therefore visits at
// most two laps of the class's chunks: a first lap that found no victim
// cleared every bit it met, so the second returns the first unpinned
// item, and zero means a whole lap held none.
func (a *slabAllocator) victim(i int) handle {
	c := &a.classes[i]
	perPage := a.pageSize / c.chunkSize
	n := len(c.pages) * perPage
	chances := 0
	for visits := 0; visits < 2*n; visits++ {
		h := a.handleAt(c.pages[c.hand/perPage], c.hand%perPage*c.chunkSize)
		if c.hand++; c.hand == n {
			c.hand = 0
		}
		ck := a.chunk(h)
		if !ck.inUse() || ck.pinned() {
			continue
		}
		if ck.referenced() && chances < maxSecondChances {
			ck.clearReferenced()
			chances++
			continue
		}
		return h
	}
	return 0
}

// pageRemoved keeps the hand valid when completeReassign has taken the
// class's page at index i out of pages: a hand on a later page stays on
// its chunk, one on the page itself moves to the start of the page that
// took its place, and one left past the last page wraps to the first.
func (c *slabClass) pageRemoved(i, pageSize int) {
	perPage := pageSize / c.chunkSize
	switch at := c.hand / perPage; {
	case at > i:
		c.hand -= perPage
	case at == i:
		c.hand = i * perPage
	}
	if c.hand >= len(c.pages)*perPage {
		c.hand = 0
	}
}
