package kvstore

// Eviction is the Wiggins & Langston Bags pseudo-LRU, the store's one
// policy: items sit in insertion-ordered bags, a read only sets the
// item's referenced mark, and eviction gives marked items a second
// chance. Reads never reorder, so a hit writes no other chunk. Every
// method runs under the shard lock. Lists are intrusive: they link
// items through the prev/next handles in the chunk headers.

// itemList is a doubly-linked list of items; a bag is one (head =
// oldest).
type itemList struct {
	head, tail handle
	size       int
}

func (l *itemList) pushBack(mem *arena, h handle) {
	c := mem.chunk(h)
	c.setPrev(l.tail)
	c.setNext(0)
	if l.tail != 0 {
		mem.chunk(l.tail).setNext(h)
	}
	l.tail = h
	if l.head == 0 {
		l.head = h
	}
	l.size++
}

func (l *itemList) remove(mem *arena, h handle) {
	c := mem.chunk(h)
	prev, next := c.prev(), c.next()
	if prev != 0 {
		mem.chunk(prev).setNext(next)
	} else {
		l.head = next
	}
	if next != 0 {
		mem.chunk(next).setPrev(prev)
	} else {
		l.tail = prev
	}
	c.setPrev(0)
	c.setNext(0)
	l.size--
}

const (
	bagCapacity      = 1024 // items per bag before a new bag opens
	maxSecondChances = 8    // bounded scan per victim() call
	maxBags          = 1<<16 - 1
)

// bag is a FIFO of items inserted in the same era. Bags live in one
// per-shard table and are named by index (0 = none), which is what an
// item's offBag field holds.
type bag struct {
	itemList
	prev, next uint16 // neighbours in the class chain, or the next free slot
}

// bagChain is the per-class ordered chain of bags, oldest first. Every
// bag but the newest holds at least one item: a bag that empties is
// unlinked at once, since it would never be filled again.
type bagChain struct {
	oldest, newest uint16
}

// bagsPolicy is one shard's eviction state.
type bagsPolicy struct {
	mem    *arena
	chains []bagChain
	bags   []bag  // bags[0] is unused
	free   uint16 // recycled slots, linked through next
}

func newBagsPolicy(mem *arena, classes int) bagsPolicy {
	return bagsPolicy{mem: mem, chains: make([]bagChain, classes), bags: make([]bag, 1)}
}

// openBag links a fresh bag at the newest end of c. When the table is
// full it reports false and the caller overfills the newest bag
// instead: eviction order coarsens, nothing breaks. The last slots are
// kept for chains that have no bag yet, so every class can open its
// first.
func (p *bagsPolicy) openBag(c *bagChain) bool {
	var b uint16
	switch {
	case p.free != 0:
		b = p.free
		p.free = p.bags[b].next
	case c.newest == 0 || len(p.bags) <= maxBags-len(p.chains):
		b = uint16(len(p.bags))
		p.bags = append(p.bags, bag{})
	default:
		return false
	}
	p.bags[b] = bag{prev: c.newest}
	if c.newest != 0 {
		p.bags[c.newest].next = b
	} else {
		c.oldest = b
	}
	c.newest = b
	return true
}

func (p *bagsPolicy) appendItem(c *bagChain, h handle) {
	if c.newest == 0 || p.bags[c.newest].size >= bagCapacity {
		p.openBag(c)
	}
	p.bags[c.newest].pushBack(p.mem, h)
	p.mem.chunk(h).setBag(c.newest)
}

// removeItem takes h out of its bag and drops the bag from c if that
// emptied it (the newest bag stays: it is where inserts go).
func (p *bagsPolicy) removeItem(c *bagChain, h handle) {
	ck := p.mem.chunk(h)
	b := ck.bag()
	bg := &p.bags[b]
	bg.remove(p.mem, h)
	ck.setBag(0)
	if bg.size != 0 || b == c.newest {
		return
	}
	if bg.prev != 0 {
		p.bags[bg.prev].next = bg.next
	} else {
		c.oldest = bg.next
	}
	p.bags[bg.next].prev = bg.prev
	bg.next = p.free
	p.free = b
}

func (p *bagsPolicy) onInsert(h handle) {
	p.appendItem(&p.chains[p.mem.chunk(h).class()], h)
}

// onAccess only marks the item referenced — no list surgery, which is
// the whole point of the Bags design.
func (p *bagsPolicy) onAccess(h handle) { p.mem.chunk(h).setReferenced() }

func (p *bagsPolicy) onRemove(h handle) {
	p.removeItem(&p.chains[p.mem.chunk(h).class()], h)
}

// victim returns the next eviction candidate for a class, or zero if
// the class holds no item that can go. A pinned item is never the
// victim: its chunk could not be reused until the sender lets go.
func (p *bagsPolicy) victim(classIdx int) handle {
	c := &p.chains[classIdx]
	for tries := 0; tries < maxSecondChances; tries++ {
		h := p.oldestItem(c)
		if h == 0 {
			return 0
		}
		ck := p.mem.chunk(h)
		if !ck.referenced() && !ck.pinned() {
			return h
		}
		// Second chance: read since it was inserted or last passed
		// over, or being sent right now. The mark is spent and the item
		// moves to the newest bag, so it survives this pass and, unread
		// and unpinned, not the next.
		ck.clearReferenced()
		p.removeItem(c, h)
		p.appendItem(c, h)
	}
	// Scan budget exhausted: fall back to the literal oldest item.
	if h := p.oldestItem(c); h != 0 && !p.mem.chunk(h).pinned() {
		return h
	}
	return 0
}

// oldestItem returns the head of the oldest bag, or zero for an empty
// class (whose chain is either absent or one empty newest bag).
func (p *bagsPolicy) oldestItem(c *bagChain) handle {
	return p.bags[c.oldest].head
}
