package kvstore

import (
	"fmt"
	"testing"
)

// TestItemListInvariants: pushBack and remove keep both walk directions,
// the ends and the size in agreement, wherever the removed item sat.
func TestItemListInvariants(t *testing.T) {
	mem := newTestMem(t)
	arena := &mem.alloc.arena
	var l itemList
	items := make([]handle, 10)
	for i := range items {
		items[i] = mem.mk(fmt.Sprintf("i%d", i), 0)
		l.pushBack(arena, items[i])
	}
	check := func(want []handle) {
		t.Helper()
		var fwd, back []handle
		for h := l.head; h != 0; h = arena.chunk(h).next() {
			fwd = append(fwd, h)
		}
		for h := l.tail; h != 0; h = arena.chunk(h).prev() {
			back = append([]handle{h}, back...)
		}
		if l.size != len(want) || fmt.Sprint(fwd) != fmt.Sprint(want) || fmt.Sprint(back) != fmt.Sprint(want) {
			t.Fatalf("size %d, forward %v, backward %v; want %v", l.size, fwd, back, want)
		}
	}
	check(items)
	remove := func(idx ...int) {
		t.Helper()
		for _, i := range idx {
			l.remove(arena, items[i])
			if c := arena.chunk(items[i]); c.prev() != 0 || c.next() != 0 {
				t.Fatalf("removed item %d keeps links %#x/%#x", i, c.prev(), c.next())
			}
		}
	}
	remove(5, 0, 9) // the middle, the head, the tail
	check([]handle{items[1], items[2], items[3], items[4], items[6], items[7], items[8]})
	remove(1, 2, 3, 4, 6, 7, 8)
	check(nil)
	if l.head != 0 || l.tail != 0 {
		t.Fatalf("emptied list keeps ends %#x/%#x", l.head, l.tail)
	}
}

func TestBagsVictimFIFOWhenUntouched(t *testing.T) {
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 1)
	a, b, c := mem.mk("a", 0), mem.mk("b", 0), mem.mk("c", 0)
	p.onInsert(a)
	p.onInsert(b)
	p.onInsert(c)
	if v := p.victim(0); v != a {
		t.Fatalf("victim = %q, want a", mem.key(v))
	}
}

func TestBagsSecondChance(t *testing.T) {
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 1)
	a, b := mem.mk("a", 0), mem.mk("b", 0)
	p.onInsert(a)
	p.onInsert(b)
	// a was read since it was inserted: it deserves a second chance.
	p.onAccess(a)
	v := p.victim(0)
	if v != b {
		t.Fatalf("victim = %q, want b (a was recently read)", mem.key(v))
	}
}

// TestBagsSecondChanceBit: a hit since eviction last passed over an
// item buys it one victim scan, not two.
func TestBagsSecondChanceBit(t *testing.T) {
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 1)
	a, b, c := mem.mk("a", 0), mem.mk("b", 0), mem.mk("c", 0)
	for _, h := range []handle{a, b, c} {
		p.onInsert(h)
	}
	p.onAccess(a)
	p.onAccess(a) // two hits are still one chance
	if v := p.victim(0); v != b {
		t.Fatalf("first scan: victim = %q, want b (a was read)", mem.key(v))
	}
	if mem.alloc.chunk(a).referenced() {
		t.Fatal("the scan passed over a and left it referenced")
	}
	p.onRemove(b)
	if v := p.victim(0); v != c {
		t.Fatalf("second scan: victim = %q, want c (a moved behind it)", mem.key(v))
	}
	p.onRemove(c)
	if v := p.victim(0); v != a {
		t.Fatalf("third scan: victim = %q, want a: one hit bought a second pass", mem.key(v))
	}
}

func TestBagsAccessDoesNotReorder(t *testing.T) {
	// Unlike strict LRU, a read of an old item must not move list pointers —
	// only the referenced mark changes. We verify by checking it stays
	// in the same bag.
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 1)
	a := mem.mk("a", 0)
	p.onInsert(a)
	bagBefore := mem.alloc.chunk(a).bag()
	p.onAccess(a)
	if mem.alloc.chunk(a).bag() != bagBefore {
		t.Fatal("bags access must not rebag the item")
	}
}

func TestBagsNewBagAfterCapacity(t *testing.T) {
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 1)
	items := make([]handle, bagCapacity+1)
	for i := range items {
		items[i] = mem.mk(fmt.Sprintf("i%d", i), 0)
		p.onInsert(items[i])
	}
	if mem.alloc.chunk(items[0]).bag() == mem.alloc.chunk(items[bagCapacity]).bag() {
		t.Fatal("overflow item should land in a fresh bag")
	}
}

// TestBagsFullTableOverfillsNewestBag pins what happens when the bag
// table has no slot left: a class's newest bag takes items past its
// capacity, and a class that has no bag yet still gets its first one.
func TestBagsFullTableOverfillsNewestBag(t *testing.T) {
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 2)
	p.bags = make([]bag, maxBags+1-len(p.chains)) // as if other chains held every ordinary slot
	items := make([]handle, bagCapacity+5)
	for i := range items {
		items[i] = mem.mk(fmt.Sprintf("i%d", i), 0)
		p.onInsert(items[i])
	}
	first, last := mem.alloc.chunk(items[0]).bag(), mem.alloc.chunk(items[len(items)-1]).bag()
	if first != last || p.bags[first].size != len(items) {
		t.Fatalf("items landed in bags %d and %d, the first holding %d; want all %d in one", first, last, p.bags[first].size, len(items))
	}
	other := mem.mk("other", 1)
	p.onInsert(other)
	if b := mem.alloc.chunk(other).bag(); b == 0 || b == first {
		t.Fatalf("the second class's first item landed in bag %d, want a bag of its own", b)
	}
	if v := p.victim(0); v != items[0] {
		t.Fatalf("victim = %q, want the oldest item", mem.key(v))
	}
}

func TestBagsEmptyClass(t *testing.T) {
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 2)
	if p.victim(0) != 0 {
		t.Fatal("empty class must yield no victim")
	}
	a := mem.mk("a", 0)
	p.onInsert(a)
	p.onRemove(a)
	if p.victim(0) != 0 {
		t.Fatal("class must be empty again after removal")
	}
}

func TestBagsBoundedSecondChanceScan(t *testing.T) {
	// If everything was recently accessed the scan budget must still
	// terminate and return some victim.
	mem := newTestMem(t)
	p := newBagsPolicy(&mem.alloc.arena, 1)
	var items []handle
	for i := 0; i < 100; i++ {
		it := mem.mk(fmt.Sprintf("i%d", i), 0)
		p.onInsert(it)
		items = append(items, it)
	}
	for _, it := range items {
		p.onAccess(it)
	}
	// All items hot: victim must still return non-nil.
	if v := p.victim(0); v == 0 {
		t.Fatal("victim must not return nil for a populated class")
	}
}
