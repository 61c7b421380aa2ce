// Package kvstore implements a memcached-compatible in-memory key-value
// store: a slab allocator with page reassignment, a tagged
// open-addressing hash index, CLOCK eviction, TTLs, CAS, and the usual verb
// set. It is both the functional substrate for the kv3d examples and TCP
// server, and the reference the timing models' cost parameters were
// derived from.
//
// Concurrency follows the designs the paper benchmarks against
// (Wiggins & Langston): one shard serializes everything behind one lock
// (memcached 1.4), more shards stripe the keyspace (memcached 1.6
// fine-grained locking), and CLOCK eviction keeps the read path free of
// list writes, as Bags does: a hit sets a bit instead of relinking a
// list, and an item carries no eviction links at all.
package kvstore

import (
	"fmt"
	"math/bits"
	"sort"
)

// Slab allocator defaults mirroring memcached's.
const (
	DefaultBaseChunkSize = 96
	DefaultGrowthFactor  = 1.25
	DefaultSlabPageSize  = 1 << 20 // 1 MiB
	DefaultMaxItemSize   = 1 << 20
)

// arena is a shard's slab memory addressed by handle. pages has one
// slot per page the memory limit allows, filled as pages are allocated;
// pages[0] stays nil so that no chunk has handle 0.
type arena struct {
	pages   [][]byte
	offBits uint   // handle bits that hold the in-page offset (in 8-byte units)
	offMask handle // 1<<offBits - 1
}

// chunk returns the bytes h names, from the chunk's first byte to the
// end of its page.
func (a *arena) chunk(h handle) chunk {
	return chunk(a.pages[h>>a.offBits][(h&a.offMask)<<3:])
}

// pageOf returns the number of the page h lies in.
func (a *arena) pageOf(h handle) uint32 { return uint32(h >> a.offBits) }

// handleAt names the chunk that starts off bytes into a page.
func (a *arena) handleAt(page uint32, off int) handle {
	return handle(page)<<a.offBits | handle(off>>3)
}

// slabClass manages chunks of a single size. Free chunks form an
// intrusive LIFO threaded through their own offFreeNext field, so a free
// chunk costs nothing outside its page. The chunks of a page fresh from
// the heap are not even threaded: the fresh lowest-offset chunks of
// freshPage have never been handed out, and are taken highest first once
// the list is empty — so a new page stays untouched, and out of the
// resident set, until its chunks are used.
type slabClass struct {
	chunkSize int
	free      handle
	freshPage uint32
	fresh     int
	freeCount int      // free chunks, threaded and fresh
	pages     []uint32 // page numbers, in the order the class acquired them
	allocated int      // chunks handed out
	hand      int      // the CLOCK hand: index, over pages in order, of the chunk victim looks at next
}

// slabAllocator carves fixed-size pages into per-class chunks. It tracks
// total page bytes against a memory limit; when the limit is reached,
// alloc returns the zero handle and the caller must evict or reassign.
// Pages can be reassigned between classes once their live chunks are
// evicted (memcached's slab_reassign, the cure for slab calcification).
// Page metadata sits in slices parallel to arena.pages, indexed by page
// number, so the allocator holds no pointer per page or per chunk.
type slabAllocator struct {
	arena
	pageClass []int32 // owning class index
	pageLive  []int32 // chunks currently handed out
	pagePins  []int32 // pins held on the page's chunks; a pinned page is never stolen
	numPages  uint32  // pages allocated so far; they are numbered 1..numPages
	classes   []slabClass
	pageSize  int
	maxPages  uint32
}

// newSlabAllocator builds the size-class ladder: chunk sizes start at
// base and grow by factor, aligned to 8 bytes, capped at pageSize.
func newSlabAllocator(base int, factor float64, pageSize int, memLimit int64) (*slabAllocator, error) {
	if base <= 0 || pageSize <= 0 || memLimit <= 0 {
		return nil, fmt.Errorf("kvstore: non-positive slab parameter (base=%d page=%d limit=%d)", base, pageSize, memLimit)
	}
	if factor <= 1.0 {
		return nil, fmt.Errorf("kvstore: growth factor %v must exceed 1.0", factor)
	}
	if int64(pageSize) > memLimit {
		return nil, fmt.Errorf("kvstore: page size %d exceeds memory limit %d", pageSize, memLimit)
	}
	offBits := uint(bits.Len64(uint64(pageSize+7)>>3 - 1))
	maxPages := memLimit / int64(pageSize)
	if offBits >= 32 || maxPages >= int64(1)<<(32-offBits) {
		return nil, fmt.Errorf("kvstore: %d pages of %dB per shard exceed what a 32-bit item handle can address; use more shards or larger pages",
			maxPages, pageSize)
	}
	a := &slabAllocator{
		arena:     arena{pages: make([][]byte, maxPages+1), offBits: offBits, offMask: 1<<offBits - 1},
		pageClass: make([]int32, maxPages+1),
		pageLive:  make([]int32, maxPages+1),
		pagePins:  make([]int32, maxPages+1),
		pageSize:  pageSize,
		maxPages:  uint32(maxPages),
	}
	size := base
	for size < pageSize {
		a.classes = append(a.classes, slabClass{chunkSize: align8(size)})
		next := int(float64(size) * factor)
		if next <= size {
			next = size + 8
		}
		size = next
	}
	a.classes = append(a.classes, slabClass{chunkSize: pageSize})
	if len(a.classes) > maxClasses {
		return nil, fmt.Errorf("kvstore: growth factor %v yields %d slab classes, more than the %d an item header can name",
			factor, len(a.classes), maxClasses)
	}
	return a, nil
}

func align8(n int) int { return (n + 7) &^ 7 }

// classFor returns the index of the smallest class whose chunks fit size.
func (a *slabAllocator) classFor(size int) (int, bool) {
	if size <= 0 {
		size = 1
	}
	i := sort.Search(len(a.classes), func(i int) bool {
		return a.classes[i].chunkSize >= size
	})
	if i == len(a.classes) {
		return 0, false
	}
	return i, true
}

// chunkSize reports the chunk size of class i.
func (a *slabAllocator) chunkSize(i int) int { return a.classes[i].chunkSize }

// numClasses reports how many size classes exist.
func (a *slabAllocator) numClasses() int { return len(a.classes) }

// pushFree puts a chunk on top of class c's free list.
func (a *slabAllocator) pushFree(c *slabClass, h handle) {
	ck := a.chunk(h)
	ck.markFree()
	ck.setFreeNext(c.free)
	c.free = h
	c.freeCount++
}

// carve splits a page that has held other chunks into chunks for class i
// and free-lists them, lowest offset first (so the highest is handed out
// first); writing each chunk's free mark is what retires the old ones.
func (a *slabAllocator) carve(page uint32, i int) {
	c := &a.classes[i]
	a.pageClass[page] = int32(i)
	a.pageLive[page] = 0
	for off := 0; off+c.chunkSize <= a.pageSize; off += c.chunkSize {
		a.pushFree(c, a.handleAt(page, off))
	}
}

// forEachInUse visits the chunks of a page that hold items, in address
// order: the page's own chunks say which they are. The fresh chunks of
// the class's fresh page were never handed out and are not read, so a
// walk faults in no memory an item has not touched. fn may release the
// chunk it is given.
func (a *slabAllocator) forEachInUse(page uint32, fn func(handle)) {
	c := &a.classes[a.pageClass[page]]
	size, start := c.chunkSize, 0
	if page == c.freshPage {
		start = c.fresh * size
	}
	for off := start; off+size <= a.pageSize; off += size {
		if h := a.handleAt(page, off); a.chunk(h).inUse() {
			fn(h)
		}
	}
}

// alloc returns a chunk for class i, growing the class by one page if
// the memory limit allows. The zero handle means the caller must evict
// or reassign.
func (a *slabAllocator) alloc(i int) handle {
	c := &a.classes[i]
	var h handle
	switch {
	case c.free != 0:
		h = c.free
		c.free = a.chunk(h).freeNext()
	case c.fresh > 0:
		c.fresh--
		h = a.handleAt(c.freshPage, c.fresh*c.chunkSize)
	case a.canGrow():
		a.numPages++
		a.pages[a.numPages] = make([]byte, a.pageSize)
		a.pageClass[a.numPages] = int32(i)
		c.pages = append(c.pages, a.numPages)
		c.freshPage, c.fresh = a.numPages, a.pageSize/c.chunkSize
		c.freeCount += c.fresh
		return a.alloc(i)
	default:
		return 0
	}
	c.freeCount--
	c.allocated++
	a.pageLive[a.pageOf(h)]++
	return h
}

// release returns a chunk to the free list of the class that owns its
// page.
func (a *slabAllocator) release(h handle) {
	page := a.pageOf(h)
	c := &a.classes[a.pageClass[page]]
	c.allocated--
	a.pageLive[page]--
	a.pushFree(c, h)
}

// canGrow reports whether a new page would fit under the memory limit.
func (a *slabAllocator) canGrow() bool { return a.numPages < a.maxPages }

// pageBytes reports total bytes of slab pages allocated.
func (a *slabAllocator) pageBytes() int64 { return int64(a.numPages) * int64(a.pageSize) }

// freeDonor finds a page with no live chunks in any other class — the
// cheap reassignment that needs no evictions. Zero means none.
func (a *slabAllocator) freeDonor(target int) uint32 {
	for i := range a.classes {
		if i == target {
			continue
		}
		for _, p := range a.classes[i].pages {
			if a.pageLive[p] == 0 {
				return p
			}
		}
	}
	return 0
}

// liveDonor picks the page to sacrifice for a starving class: from the
// class with the most pages (excluding the target), the page with the
// fewest live chunks that holds no pinned chunk. Returns zero when no
// class can donate. Callers must rate-limit this path — it evicts live
// items wholesale.
func (a *slabAllocator) liveDonor(target int) uint32 {
	donorClass := -1
	for i := range a.classes {
		if i == target || len(a.classes[i].pages) == 0 {
			continue
		}
		if donorClass < 0 || len(a.classes[i].pages) > len(a.classes[donorClass].pages) {
			donorClass = i
		}
	}
	if donorClass < 0 {
		return 0
	}
	var page uint32
	for _, p := range a.classes[donorClass].pages {
		if a.pagePins[p] == 0 && (page == 0 || a.pageLive[p] < a.pageLive[page]) {
			page = p
		}
	}
	return page
}

// completeReassign moves a page (whose live count the caller has driven
// to zero by evicting its items) from its class to the target class.
func (a *slabAllocator) completeReassign(page uint32, target int) error {
	if a.pageLive[page] != 0 {
		return fmt.Errorf("kvstore: reassigning page with %d live chunks", a.pageLive[page])
	}
	from := &a.classes[a.pageClass[page]]
	// Unlink the page from its old class.
	for i, p := range from.pages {
		if p == page {
			from.pages = append(from.pages[:i], from.pages[i+1:]...)
			from.pageRemoved(i, a.pageSize)
			break
		}
	}
	// Drop its free chunks from the old class: the fresh ones, and those
	// on the free list, keeping the order of the rest.
	if from.freshPage == page {
		from.fresh = 0
	}
	var head, last handle
	kept := 0
	for h := from.free; h != 0; h = a.chunk(h).freeNext() {
		if a.pageOf(h) == page {
			continue
		}
		if last == 0 {
			head = h
		} else {
			a.chunk(last).setFreeNext(h)
		}
		last = h
		kept++
	}
	if last != 0 {
		a.chunk(last).setFreeNext(0)
	}
	from.free, from.freeCount = head, kept+from.fresh
	// Re-carve for the target class.
	to := &a.classes[target]
	to.pages = append(to.pages, page)
	a.carve(page, target)
	return nil
}
