package kv3d

import (
	"fmt"
	"runtime"
	"testing"

	"kv3d/internal/kvstore"
)

// TestStoreHeapIsSlabPlusTable is the density gate: what a loaded store
// adds to the Go heap is its slab pages plus the hash-table buckets, and
// nothing per item — header, key and value all live in the slab chunk,
// and every link is a handle rather than a pointer (DESIGN.md, "Chunk
// layout"). So the memory limit bounds the store's heap, and the
// collector has one object per slab page to look at instead of one or
// two per item. 8 B per item is the table's own worst case: 4-byte
// buckets at the 3/2 load factor, old and new arrays both alive at the
// start of a rehash. Before the chunk layout an item cost ~170 B and an
// object beyond the slab, plus a key string when it came off the wire.
func TestStoreHeapIsSlabPlusTable(t *testing.T) {
	const items = 200_000
	keys := make([]string, items)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%08d", i)
	}
	value := make([]byte, 100)

	st, err := kvstore.New(kvstore.DefaultConfig(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if err := st.Set(k, value, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	stats := st.Stats()
	if stats.CurrItems != items {
		t.Fatalf("resident items = %d, want %d", stats.CurrItems, items)
	}
	// 36 B of header + a 12 B key + 100 B of value is 148 B, which the
	// 152 B class holds; the 48-byte header's 160 B needed the 192 B one.
	// (SlabBytes also counts each shard's partly used last page, so the
	// gate is on the chunks the items occupy.)
	var chunkBytes int64
	for _, c := range st.SlabStats() {
		chunkBytes += int64(c.UsedChunks) * int64(c.ChunkSize)
	}
	if perItem := float64(chunkBytes) / items; perItem > 156 {
		t.Errorf("items occupy %.0f B of chunk each, want at most 156", perItem)
	}
	pages := stats.SlabBytes / int64(st.Config().SlabPageSize)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := stats.SlabBytes + 8*items; heap > limit {
		t.Errorf("heap grew %d B for %d items: %d B of slab + %.1f B/item, want at most slab + 8 B/item",
			heap, items, stats.SlabBytes, float64(heap-stats.SlabBytes)/items)
	}
	// One object per slab page, plus per shard the bucket array (two
	// while a rehash is in flight) and the regrown page lists.
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	if limit := pages + 8*int64(stats.Shards); objects > limit {
		t.Errorf("heap grew by %d objects for %d items on %d slab pages, want at most %d", objects, items, pages, limit)
	}
	runtime.KeepAlive(st)
	runtime.KeepAlive(keys) // or the second collection frees them and hides as much growth
}
