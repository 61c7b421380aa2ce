package kvstore

import (
	"testing"
	"testing/quick"
)

func TestSlabClassLadder(t *testing.T) {
	a, err := newSlabAllocator(96, 1.25, 1<<20, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if a.numClasses() < 10 {
		t.Fatalf("expected a ladder of classes, got %d", a.numClasses())
	}
	prev := 0
	for i := 0; i < a.numClasses(); i++ {
		cs := a.chunkSize(i)
		if cs <= prev {
			t.Fatalf("class %d size %d not strictly increasing (prev %d)", i, cs, prev)
		}
		if cs%8 != 0 {
			t.Fatalf("class %d size %d not 8-aligned", i, cs)
		}
		prev = cs
	}
	if a.chunkSize(a.numClasses()-1) != 1<<20 {
		t.Fatalf("last class should be the page size, got %d", a.chunkSize(a.numClasses()-1))
	}
}

func TestSlabClassFor(t *testing.T) {
	a, _ := newSlabAllocator(96, 1.25, 1<<20, 16<<20)
	for _, size := range []int{1, 95, 96, 97, 1000, 1 << 19, 1 << 20} {
		i, ok := a.classFor(size)
		if !ok {
			t.Fatalf("classFor(%d) failed", size)
		}
		if a.chunkSize(i) < size {
			t.Fatalf("classFor(%d) = class of %d bytes", size, a.chunkSize(i))
		}
		if i > 0 && a.chunkSize(i-1) >= size {
			t.Fatalf("classFor(%d) not minimal: class %d fits too", size, i-1)
		}
	}
	if _, ok := a.classFor(1<<20 + 1); ok {
		t.Fatal("oversized request should fail")
	}
}

func TestSlabAllocFreeCycle(t *testing.T) {
	a, _ := newSlabAllocator(96, 1.25, 4096, 8192)
	ci, _ := a.classFor(96)
	var chunks []handle
	for {
		h := a.alloc(ci)
		if h == 0 {
			break
		}
		if a.pageClass[a.pageOf(h)] != int32(ci) {
			t.Fatalf("chunk %#x lies in a page of class %d, want %d", h, a.pageClass[a.pageOf(h)], ci)
		}
		chunks = append(chunks, h)
	}
	wantChunks := (8192 / 4096) * (4096 / a.chunkSize(ci))
	if len(chunks) != wantChunks {
		t.Fatalf("allocated %d chunks, want %d", len(chunks), wantChunks)
	}
	// Free everything and re-allocate: must succeed without new pages.
	pages := a.pageBytes()
	for _, h := range chunks {
		a.release(h)
	}
	for range chunks {
		if a.alloc(ci) == 0 {
			t.Fatal("re-alloc after free failed")
		}
	}
	if a.pageBytes() != pages {
		t.Fatalf("page bytes grew across free/realloc: %d -> %d", pages, a.pageBytes())
	}
}

func TestSlabMemoryLimitRespected(t *testing.T) {
	a, _ := newSlabAllocator(96, 1.25, 4096, 10000)
	ci, _ := a.classFor(500)
	for a.alloc(ci) != 0 {
	}
	if a.pageBytes() > 10000 {
		t.Fatalf("page bytes %d exceed limit 10000", a.pageBytes())
	}
	if a.canGrow() {
		t.Fatal("canGrow should be false at the limit")
	}
}

func TestSlabPageLiveTracking(t *testing.T) {
	a, _ := newSlabAllocator(96, 1.25, 4096, 8192)
	ci, _ := a.classFor(96)
	c1 := a.alloc(ci)
	c2 := a.alloc(ci)
	page := a.pageOf(c1)
	if a.pageOf(c2) != page {
		t.Fatal("first two chunks should share one page")
	}
	if a.pageLive[page] != 2 {
		t.Fatalf("live = %d, want 2", a.pageLive[page])
	}
	a.release(c1)
	if a.pageLive[page] != 1 {
		t.Fatalf("live after release = %d, want 1", a.pageLive[page])
	}
}

func TestSlabReassignMovesPage(t *testing.T) {
	a, _ := newSlabAllocator(96, 2.0, 4096, 8192) // room for exactly 2 pages
	small, _ := a.classFor(96)
	big, _ := a.classFor(3000)
	// Fill both pages with small chunks, then free them all.
	var refs []handle
	for {
		h := a.alloc(small)
		if h == 0 {
			break
		}
		refs = append(refs, h)
	}
	for _, h := range refs {
		a.release(h)
	}
	// big class cannot grow (limit reached) until a page is reassigned.
	if a.alloc(big) != 0 {
		t.Fatal("big class should be out of memory before reassignment")
	}
	page := a.freeDonor(big)
	if page == 0 {
		t.Fatal("expected a free donor page")
	}
	if a.pageLive[page] != 0 {
		t.Fatalf("donor should be the empty page, live = %d", a.pageLive[page])
	}
	if a.liveDonor(big) == 0 {
		t.Fatal("liveDonor should also find a candidate")
	}
	smallFree := a.classes[small].freeCount
	if err := a.completeReassign(page, big); err != nil {
		t.Fatal(err)
	}
	if got, want := a.classes[small].freeCount, smallFree-4096/a.chunkSize(small); got != want {
		t.Fatalf("small class free list has %d chunks after losing a page, want %d", got, want)
	}
	if a.alloc(big) == 0 {
		t.Fatal("big class still starved after reassignment")
	}
	// Small class must still work with its remaining page, and hand out
	// only chunks that lie on it.
	for i := 0; i < a.classes[small].freeCount; i++ {
		h := a.alloc(small)
		if h == 0 {
			t.Fatal("small class lost its remaining page")
		}
		if a.pageOf(h) == page {
			t.Fatalf("small class handed out chunk %#x of the page it gave away", h)
		}
	}
}

// TestSlabReassignTakesFreshChunks gives away a page most of whose
// chunks were never handed out: they must leave the class with it.
func TestSlabReassignTakesFreshChunks(t *testing.T) {
	a, _ := newSlabAllocator(96, 2.0, 4096, 4096) // one page
	small, _ := a.classFor(96)
	big, _ := a.classFor(3000)
	h := a.alloc(small)
	if got, want := a.classes[small].fresh, 4096/a.chunkSize(small)-1; got != want {
		t.Fatalf("after one alloc the new page has %d fresh chunks, want %d", got, want)
	}
	a.release(h)
	page := a.freeDonor(big)
	if page != a.pageOf(h) {
		t.Fatalf("free donor = page %d, want the small class's page %d", page, a.pageOf(h))
	}
	if err := a.completeReassign(page, big); err != nil {
		t.Fatal(err)
	}
	if c := a.classes[small]; c.fresh != 0 || c.freeCount != 0 || c.free != 0 {
		t.Fatalf("small class still counts %d fresh, %d free chunks (list head %#x) on a page it gave away", c.fresh, c.freeCount, c.free)
	}
	if a.alloc(small) != 0 {
		t.Fatal("small class handed out a chunk with no page left")
	}
	if a.alloc(big) == 0 {
		t.Fatal("big class cannot use the page it was given")
	}
}

func TestSlabReassignRejectsLivePage(t *testing.T) {
	a, _ := newSlabAllocator(96, 1.25, 4096, 8192)
	ci, _ := a.classFor(96)
	h := a.alloc(ci)
	if err := a.completeReassign(a.pageOf(h), ci+1); err == nil {
		t.Fatal("reassigning a live page must fail")
	}
}

// TestSlabHandleAddressing pins the handle encoding: zero is never a
// chunk, handles of one class are a chunk size apart, and a limit with
// more pages than the page-number bits can name is refused.
func TestSlabHandleAddressing(t *testing.T) {
	a, _ := newSlabAllocator(96, 1.25, 4096, 8192)
	ci, _ := a.classFor(96)
	first, second := a.alloc(ci), a.alloc(ci)
	if first == 0 || second == 0 {
		t.Fatal("alloc returned the nil handle")
	}
	if got, want := int(first-second)*8, a.chunkSize(ci); got != want {
		t.Fatalf("consecutive handles are %d bytes apart, want the chunk size %d", got, want)
	}
	// 4 KiB pages leave 23 page-number bits: 2^23 pages do not fit.
	if _, err := newSlabAllocator(96, 1.25, 4096, 4096<<23); err == nil {
		t.Fatal("a limit of 2^23 4-KiB pages must be rejected")
	}
	if _, err := newSlabAllocator(96, 1.25, 4096, 4096<<23-4096); err != nil {
		t.Fatalf("2^23-1 pages are addressable: %v", err)
	}
	// A ladder finer than the header's class field is refused too.
	if _, err := newSlabAllocator(96, 1.001, 1<<20, 16<<20); err == nil {
		t.Fatalf("a ladder of more than %d classes must be rejected", maxClasses)
	}
}

func TestSlabInvalidConfig(t *testing.T) {
	cases := []struct {
		base, page int
		factor     float64
		limit      int64
	}{
		{0, 4096, 1.25, 1 << 20},
		{96, 0, 1.25, 1 << 20},
		{96, 4096, 1.0, 1 << 20},
		{96, 4096, 1.25, 0},
		{96, 1 << 20, 1.25, 4096}, // page larger than limit
	}
	for _, c := range cases {
		if _, err := newSlabAllocator(c.base, c.factor, c.page, c.limit); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
}

func TestSlabChunksDoNotOverlapProperty(t *testing.T) {
	// Allocate chunks across classes, write a distinct pattern in each,
	// then verify no chunk's bytes were disturbed — i.e. chunks never
	// alias one another.
	a, _ := newSlabAllocator(64, 1.5, 4096, 64*1024)
	type alloc struct {
		class int
		chunk []byte
		fill  byte
	}
	var allocs []alloc
	f := func(sizes []uint16) bool {
		for _, raw := range sizes {
			size := int(raw%2000) + 1
			ci, ok := a.classFor(size)
			if !ok {
				continue
			}
			h := a.alloc(ci)
			if h == 0 {
				continue
			}
			data := a.chunk(h)[:a.chunkSize(ci)]
			fill := byte(len(allocs)%251 + 1)
			for i := range data {
				data[i] = fill
			}
			allocs = append(allocs, alloc{ci, data, fill})
		}
		for _, al := range allocs {
			for _, b := range al.chunk {
				if b != al.fill {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAlign8(t *testing.T) {
	for in, want := range map[int]int{1: 8, 8: 8, 9: 16, 96: 96, 97: 104} {
		if got := align8(in); got != want {
			t.Errorf("align8(%d) = %d, want %d", in, got, want)
		}
	}
}
