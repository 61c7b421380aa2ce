package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// usedChunks sums the chunks the allocator has handed out.
func usedChunks(st *Store) int {
	n := 0
	for _, c := range st.Stats().Classes {
		n += c.UsedChunks
	}
	return n
}

// pinKey reads key through a one-key GetBatchInto with a pinFrom of 0,
// so a hit is pinned unless its chunk already counts the most pins it
// can; it returns the pinned view or the copy appended to dst, and the
// Pin.
func pinKey(st *Store, dst []byte, key string) ([]byte, Pin, bool) {
	var scr BatchScratch
	dst, out := st.GetBatchInto(dst, [][]byte{[]byte(key)}, nil, &scr, 0)
	r := out[0]
	if r.Pin != (Pin{}) {
		return r.Pinned, r.Pin, true
	}
	return dst[r.Start:r.End], Pin{}, r.Found
}

// TestPinOutlivesItsItem walks one pinned chunk through everything that
// removes or rewrites an item: the pinned bytes never change, the store
// answers as if the pin were not there, and the chunk is freed by the
// last Unpin, not before.
func TestPinOutlivesItsItem(t *testing.T) {
	st := newTestStore(t, func(c *Config) { c.Shards = 1 })
	first := bytes.Repeat([]byte("a"), 3000)
	if err := st.Set("k", first, 0, 0); err != nil {
		t.Fatal(err)
	}
	v, p, ok := pinKey(st, nil, "k")
	if !ok || p == (Pin{}) || !bytes.Equal(v, first) {
		t.Fatalf("pin = %d bytes, pin %v, ok %v", len(v), p, ok)
	}
	// A same-class overwrite takes a new chunk instead of the pinned one.
	second := bytes.Repeat([]byte("b"), 3001)
	if err := st.Set("k", second, 0, 0); err != nil {
		t.Fatal(err)
	}
	if e, _ := st.Get("k"); !bytes.Equal(e.Value, second) || !bytes.Equal(v, first) {
		t.Fatalf("after the overwrite: get %q…, pinned %q…", e.Value[:1], v[:1])
	}
	if used, s := usedChunks(st), st.Stats(); used != 2 || s.CurrItems != 1 || s.BytesUsed != int64(itemFootprint(1, len(second))) {
		t.Fatalf("after the overwrite: %d chunks, %d items, %d bytes", used, s.CurrItems, s.BytesUsed)
	}
	// Append and incr rewrite through the same path.
	q, p2, _ := pinKey(st, nil, "k")
	if err := st.Append("k", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q, second) {
		t.Fatal("append rewrote a pinned value")
	}
	st.Unpin(p2)
	if err := st.Set("n", []byte("41"), 0, 0); err != nil {
		t.Fatal(err)
	}
	nv, pn, _ := pinKey(st, nil, "n")
	if got, err := st.Incr("n", 1); err != nil || got != 42 || string(nv) != "41" {
		t.Fatalf("incr = %d, %v; pinned %q", got, err, nv)
	}
	st.Unpin(pn)
	st.Delete("n")
	st.FlushAll(0)
	if _, ok := st.Get("k"); ok || !bytes.Equal(v, first) {
		t.Fatal("flush_all left the key, or touched the pinned bytes")
	}
	if used := usedChunks(st); used != 1 {
		t.Fatalf("%d chunks in use with only the pinned one left", used)
	}
	st.Unpin(p)
	if used, s := usedChunks(st), st.Stats(); used != 0 || s.BytesUsed != 0 {
		t.Fatalf("after the last unpin: %d chunks, %d bytes", used, s.BytesUsed)
	}
	for _, ls := range st.shards {
		if err := checkShardInvariants(ls.s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPinCountSaturates: a chunk counts 63 pins; the 64th reader gets a
// copy and the zero Pin, and the count still drains to a free chunk.
func TestPinCountSaturates(t *testing.T) {
	st := newTestStore(t, func(c *Config) { c.Shards = 1 })
	val := []byte("value")
	st.Set("k", val, 0, 0)
	var pins []Pin
	for i := 0; i < 63; i++ {
		_, p, _ := pinKey(st, nil, "k")
		if p == (Pin{}) {
			t.Fatalf("pin %d refused", i+1)
		}
		pins = append(pins, p)
	}
	dst := make([]byte, 0, 16)
	v, p, ok := pinKey(st, dst, "k")
	if !ok || p != (Pin{}) || !bytes.Equal(v, val) || &v[0] != &dst[:1][0] {
		t.Fatalf("64th pin: ok %v, pin %v, value %q (copied into dst: %v)", ok, p, v, &v[0] == &dst[:1][0])
	}
	st.Delete("k")
	for _, p := range pins {
		st.Unpin(p)
	}
	if used := usedChunks(st); used != 0 {
		t.Fatalf("%d chunks in use after the last unpin", used)
	}
	st.Unpin(Pin{}) // the zero Pin holds nothing
}

// TestPinnedItemIsNeverAVictim: eviction passes over a pinned item, and
// a page steal never picks a page that holds one.
func TestPinnedItemIsNeverAVictim(t *testing.T) {
	mem := newTestMem(t)
	items := fillPage(mem, 2)
	a, b := items[0], items[1]
	mem.alloc.chunk(a).pin()
	for i := 0; i < 2; i++ { // wherever the hand starts
		if v := mem.alloc.victim(0); v != b {
			t.Fatalf("victim = %q, want b: a is pinned", mem.key(v))
		}
	}
	mem.alloc.chunk(b).pin()
	mem.alloc.chunk(b).setReferenced()
	if v := mem.alloc.victim(0); v != 0 {
		t.Fatalf("victim = %q with every item pinned, want none", mem.key(v))
	}
	mem.alloc.release(b)

	// Two pages of class 0; the one with fewer live chunks is the
	// donor until a pin lands on it.
	perPage := mem.alloc.pageSize / mem.alloc.chunkSize(0)
	var chunks []handle
	for i := 0; i < perPage+1; i++ {
		chunks = append(chunks, mem.alloc.alloc(0))
	}
	light := mem.alloc.pageOf(chunks[perPage])
	if got := mem.alloc.liveDonor(1); got != light {
		t.Fatalf("donor = page %d, want the lighter page %d", got, light)
	}
	mem.alloc.pagePins[light]++
	if got := mem.alloc.liveDonor(1); got == light {
		t.Fatal("a page holding a pinned chunk was picked to be stolen")
	}
}

// TestGetBatchIntoPins checks the batch's pin threshold: a hit of at
// least pinFrom bytes is pinned — a view of the chunk, held until Unpin,
// once per occurrence of its key — and copies nothing into dst; a
// shorter hit is copied; a miss is neither.
func TestGetBatchIntoPins(t *testing.T) {
	st := newTestStore(t, func(c *Config) { c.Shards = 2 })
	big, small := bytes.Repeat([]byte("b"), 3000), []byte("small")
	if err := st.Set("big", big, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("small", small, 0, 0); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("big"), []byte("small"), []byte("none"), []byte("big")}
	var scr BatchScratch
	dst, out := st.GetBatchInto([]byte("pre"), keys, nil, &scr, 1000)
	if string(dst) != "presmall" {
		t.Fatalf("dst = %q, want the prefix and the small value only", dst)
	}
	for _, i := range []int{0, 3} {
		r := out[i]
		if !r.Found || r.Pin == (Pin{}) || !bytes.Equal(r.Pinned, big) || r.Flags != 7 || r.Start != r.End {
			t.Fatalf("big result %d = %+v, want a pinned view of the value", i, r)
		}
	}
	if r := out[1]; !r.Found || r.Pin != (Pin{}) || string(dst[r.Start:r.End]) != "small" {
		t.Fatalf("small result = %+v, want a copy", r)
	}
	if r := out[2]; r.Found || r.Pin != (Pin{}) {
		t.Fatalf("miss = %+v", r)
	}
	// Both pins hold the chunk through a delete; the last Unpin frees it.
	st.Delete("big")
	used := usedChunks(st)
	st.Unpin(out[0].Pin)
	if usedChunks(st) != used || !bytes.Equal(out[3].Pinned, big) {
		t.Fatal("the first Unpin freed a chunk the second pin still holds")
	}
	st.Unpin(out[3].Pin)
	if usedChunks(st) != used-1 {
		t.Fatal("the last Unpin did not free the deleted item's chunk")
	}

	// Values under pinFrom are copied only while dst stays under it; the
	// rest are pinned, so dst is bounded however many keys hit.
	keys = keys[:0]
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("mid%d", i)
		if err := st.Set(k, bytes.Repeat([]byte{byte('0' + i)}, 300), 0, 0); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, []byte(k))
	}
	dst, out = st.GetBatchInto(nil, keys, out, &scr, 1000)
	if len(dst) >= 1000 {
		t.Fatalf("dst holds %d bytes, want under pinFrom", len(dst))
	}
	copied := 0
	for i, r := range out {
		want := bytes.Repeat([]byte{byte('0' + i)}, 300)
		switch {
		case r.Pin == (Pin{}) && r.Found && bytes.Equal(dst[r.Start:r.End], want):
			copied++
		case r.Pin != (Pin{}) && r.Found && bytes.Equal(r.Pinned, want):
			st.Unpin(r.Pin)
		default:
			t.Fatalf("result %d = %+v, want a copy or a pinned view of its value", i, r)
		}
	}
	if copied != 3 {
		t.Fatalf("%d of 8 300-byte values copied under a 1000-byte pinFrom, want 3", copied)
	}
}
