package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// The CLOCK tests keep the names of the Bags tests they replace where
// the behaviour is one the two policies share.

// fillPage allocates n items of class 0 and returns them in the order
// the hand meets them: address order, lowest first.
func fillPage(mem *testMem, n int) []handle {
	items := make([]handle, n)
	for i := range items {
		items[n-1-i] = mem.mk(fmt.Sprintf("i%d", i), 0) // a fresh page hands out its highest chunk first
	}
	return items
}

// TestBagsVictimFIFOWhenUntouched: untouched items go in sweep order.
func TestBagsVictimFIFOWhenUntouched(t *testing.T) {
	mem := newTestMem(t)
	items := fillPage(mem, 3)
	for i, want := range items {
		if v := mem.alloc.victim(0); v != want {
			t.Fatalf("victim %d = %q, want %q", i, mem.key(v), mem.key(want))
		}
		mem.alloc.release(want)
	}
	if v := mem.alloc.victim(0); v != 0 {
		t.Fatalf("victim = %q with every item gone, want none", mem.key(v))
	}
}

func TestBagsSecondChance(t *testing.T) {
	mem := newTestMem(t)
	items := fillPage(mem, 2)
	// The first item was read: it deserves a second chance.
	onAccess(mem.alloc.chunk(items[0]))
	if v := mem.alloc.victim(0); v != items[1] {
		t.Fatalf("victim = %q, want %q (the other was recently read)", mem.key(v), mem.key(items[1]))
	}
}

// TestBagsSecondChanceBit: a hit since the hand last passed over an item
// buys it one pass, not two.
func TestBagsSecondChanceBit(t *testing.T) {
	mem := newTestMem(t)
	items := fillPage(mem, 3)
	a, b, c := items[0], items[1], items[2]
	onAccess(mem.alloc.chunk(a))
	onAccess(mem.alloc.chunk(a)) // two hits are still one chance
	if v := mem.alloc.victim(0); v != b {
		t.Fatalf("first scan: victim = %q, want %q (a was read)", mem.key(v), mem.key(b))
	}
	if mem.alloc.chunk(a).referenced() {
		t.Fatal("the scan passed over a and left it referenced")
	}
	mem.alloc.release(b)
	if v := mem.alloc.victim(0); v != c {
		t.Fatalf("second scan: victim = %q, want %q", mem.key(v), mem.key(c))
	}
	mem.alloc.release(c)
	if v := mem.alloc.victim(0); v != a {
		t.Fatalf("third scan: victim = %q, want a: one hit bought a single pass", mem.key(v))
	}
}

// TestBagsAccessDoesNotReorder: a hit writes the referenced bit and
// nothing else — no other byte of its chunk, no neighbour, no hand.
func TestBagsAccessDoesNotReorder(t *testing.T) {
	mem := newTestMem(t)
	items := fillPage(mem, 3)
	page := mem.alloc.pages[mem.alloc.pageOf(items[1])]
	before := bytes.Clone(page)
	hand := mem.alloc.classes[0].hand
	onAccess(mem.alloc.chunk(items[1]))
	off := int(items[1]&mem.alloc.offMask)<<3 + offRef
	for i := range page {
		want := before[i]
		if i == off {
			want |= refMark
		}
		if page[i] != want {
			t.Fatalf("a hit changed byte %d of the page: %#x -> %#x, want %#x", i, before[i], page[i], want)
		}
	}
	if mem.alloc.classes[0].hand != hand {
		t.Fatal("a hit moved the hand")
	}
}

func TestBagsEmptyClass(t *testing.T) {
	mem := newTestMem(t)
	if mem.alloc.victim(0) != 0 {
		t.Fatal("a class with no page must yield no victim")
	}
	a := mem.mk("a", 0)
	mem.alloc.release(a)
	if mem.alloc.victim(0) != 0 {
		t.Fatal("a class whose chunks are all free must yield no victim")
	}
}

// TestBagsBoundedSecondChanceScan pins victim's bound: with every item
// referenced, the first maxSecondChances in sweep order lose their bit
// and the next one is the victim, the rest untouched.
func TestBagsBoundedSecondChanceScan(t *testing.T) {
	mem := newTestMem(t)
	items := fillPage(mem, 100)
	for _, it := range items {
		onAccess(mem.alloc.chunk(it))
	}
	if v := mem.alloc.victim(0); v != items[maxSecondChances] {
		t.Fatalf("victim = %q, want %q: the item after %d second chances", mem.key(v), mem.key(items[maxSecondChances]), maxSecondChances)
	}
	for i, it := range items {
		if got, want := mem.alloc.chunk(it).referenced(), i >= maxSecondChances; got != want {
			t.Fatalf("item %d referenced = %v, want %v", i, got, want)
		}
	}
	// Fewer marked items than the budget: the scan laps the class once,
	// clearing them all, and the second lap takes the first.
	mem = newTestMem(t)
	items = fillPage(mem, 3)
	for _, it := range items {
		onAccess(mem.alloc.chunk(it))
	}
	if v := mem.alloc.victim(0); v != items[0] {
		t.Fatalf("victim = %q, want %q after one lap", mem.key(v), mem.key(items[0]))
	}
}

// TestHandSurvivesPageSteal: when another class steals the page under
// the hand, the hand stays on a chunk of its own class and victim keeps
// finding the class's items, on the pages acquired before and after.
func TestHandSurvivesPageSteal(t *testing.T) {
	mem := newTestMem(t)
	a := mem.alloc
	perPage := a.pageSize / a.chunkSize(0)
	var items []handle
	for i := 0; i < 3*perPage; i++ {
		items = append(items, mem.mk(fmt.Sprintf("i%d", i), 0))
	}
	pages := append([]uint32(nil), a.classes[0].pages...)
	if len(pages) != 3 {
		t.Fatalf("class 0 has %d pages, want 3", len(pages))
	}
	// The hand is part-way into the middle page when that page is
	// emptied and handed to class 1.
	a.classes[0].hand = perPage + 1
	for _, it := range items {
		if a.pageOf(it) == pages[1] {
			a.release(it)
		}
	}
	if err := a.completeReassign(pages[1], 1); err != nil {
		t.Fatal(err)
	}
	if got := a.classes[0].hand; got != perPage {
		t.Fatalf("hand = %d after the steal, want %d: the start of the page that took the stolen one's place", got, perPage)
	}
	seen := map[uint32]bool{}
	for i := 0; i < 2*perPage; i++ {
		v := a.victim(0)
		if v == 0 {
			t.Fatalf("victim %d: none, with %d items left", i, 2*perPage-i)
		}
		if p := a.pageOf(v); p == pages[1] {
			t.Fatalf("victim %q lies on the stolen page", mem.key(v))
		}
		seen[a.pageOf(v)] = true
		a.release(v)
	}
	if !seen[pages[0]] || !seen[pages[2]] || a.victim(0) != 0 {
		t.Fatalf("victims came from pages %v, want both of %d and %d and then none", seen, pages[0], pages[2])
	}
	// A steal that leaves the hand past the class's last page wraps it.
	a.classes[0].hand = perPage + 3
	if err := a.completeReassign(pages[2], 1); err != nil {
		t.Fatal(err)
	}
	if got := a.classes[0].hand; got != 0 {
		t.Fatalf("hand = %d after its page, the last, was stolen; want 0", got)
	}
}
