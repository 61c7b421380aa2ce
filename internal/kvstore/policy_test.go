package kvstore

import (
	"fmt"
	"testing"
)

func TestLRUVictimIsLeastRecentlyUsed(t *testing.T) {
	mem := newTestMem(t)
	p := newLRUPolicy(&mem.alloc.arena, 4)
	a, b, c := mem.mk("a", 0), mem.mk("b", 0), mem.mk("c", 0)
	p.onInsert(a)
	p.onInsert(b)
	p.onInsert(c)
	if v := p.victim(0); v != a {
		t.Fatalf("victim = %v, want a", mem.key(v))
	}
	p.onAccess(a) // a becomes MRU
	if v := p.victim(0); v != b {
		t.Fatalf("after access, victim = %v, want b", mem.key(v))
	}
}

func TestLRUVictimPerClass(t *testing.T) {
	mem := newTestMem(t)
	p := newLRUPolicy(&mem.alloc.arena, 2)
	a := mem.mk("a", 0)
	b := mem.mk("b", 1)
	p.onInsert(a)
	p.onInsert(b)
	if v := p.victim(0); v != a {
		t.Fatal("class 0 victim should be a")
	}
	if v := p.victim(1); v != b {
		t.Fatal("class 1 victim should be b")
	}
}

func TestLRURemove(t *testing.T) {
	mem := newTestMem(t)
	p := newLRUPolicy(&mem.alloc.arena, 1)
	a, b := mem.mk("a", 0), mem.mk("b", 0)
	p.onInsert(a)
	p.onInsert(b)
	p.onRemove(a)
	if v := p.victim(0); v != b {
		t.Fatal("after removing a, victim should be b")
	}
	p.onRemove(b)
	if v := p.victim(0); v != 0 {
		t.Fatal("empty class should have no victim")
	}
}

func TestLRUListInvariants(t *testing.T) {
	mem := newTestMem(t)
	arena := &mem.alloc.arena
	var l itemList
	items := make([]handle, 10)
	for i := range items {
		items[i] = mem.mk(fmt.Sprintf("i%d", i), 0)
		l.pushFront(arena, items[i])
	}
	if l.size != 10 {
		t.Fatalf("size = %d", l.size)
	}
	// Walk head->tail and tail->head; both must see 10 items.
	n := 0
	for h := l.head; h != 0; h = arena.chunk(h).next() {
		n++
	}
	if n != 10 {
		t.Fatalf("forward walk saw %d", n)
	}
	n = 0
	for h := l.tail; h != 0; h = arena.chunk(h).prev() {
		n++
	}
	if n != 10 {
		t.Fatalf("backward walk saw %d", n)
	}
	// moveToFront of the tail.
	l.moveToFront(arena, items[0])
	if l.head != items[0] {
		t.Fatal("moveToFront failed")
	}
	if l.size != 10 {
		t.Fatalf("size changed to %d", l.size)
	}
	// Remove the middle.
	l.remove(arena, items[5])
	if l.size != 9 {
		t.Fatalf("size = %d after remove", l.size)
	}
	for h := l.head; h != 0; h = arena.chunk(h).next() {
		if h == items[5] {
			t.Fatal("removed item still linked")
		}
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

// TestBagsSecondChanceBit: a hit since the policy last passed over an
// item buys it one victim scan, not two, and the bit is the policy's —
// LRU neither sets nor reads it.
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

	lru := newLRUPolicy(&mem.alloc.arena, 1)
	d := mem.mk("d", 0)
	lru.onInsert(d)
	lru.onAccess(d)
	if mem.alloc.chunk(d).referenced() {
		t.Fatal("LRU set the referenced bit")
	}
}

func TestBagsAccessDoesNotReorder(t *testing.T) {
	// Unlike LRU, a read of an old item must not move list pointers —
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

func TestPolicyFactory(t *testing.T) {
	mem := newTestMem(t)
	if _, ok := newPolicy(PolicyLRU, &mem.alloc.arena, 3).(*lruPolicy); !ok {
		t.Fatal("PolicyLRU should build lruPolicy")
	}
	if _, ok := newPolicy(PolicyBags, &mem.alloc.arena, 3).(*bagsPolicy); !ok {
		t.Fatal("PolicyBags should build bagsPolicy")
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyLRU.String() != "lru" || PolicyBags.String() != "bags" {
		t.Fatal("policy names wrong")
	}
	if EvictionPolicy(99).String() != "unknown" {
		t.Fatal("unknown policy name wrong")
	}
}
