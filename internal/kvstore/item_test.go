package kvstore

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestValueAlignedWhenTheChunkHasRoom pins the one liberty the layout
// takes: the value starts on an 8-byte boundary whenever the chunk can
// spare the padding, and right behind the key when the item fills its
// chunk to the last byte — the footprint, and so the class, is the same
// either way.
func TestValueAlignedWhenTheChunkHasRoom(t *testing.T) {
	mem := newTestMem(t)
	const class = 0
	size := mem.alloc.chunkSize(class)
	key := []byte("k2345")
	room := size - itemHeaderSize - len(key)
	pad := align8(itemHeaderSize+len(key)) - (itemHeaderSize + len(key))
	if pad < 2 {
		t.Fatalf("a %d-byte key needs %d bytes of padding; pick one that needs more", len(key), pad)
	}
	for _, tc := range []struct {
		valueLen int
		aligned  bool
	}{
		{0, true},
		{room - pad, true},      // padding just fits
		{room - pad + 1, false}, // one byte short of it
		{room, false},           // fills the chunk
	} {
		value := bytes.Repeat([]byte{0xab}, tc.valueLen)
		c := mem.alloc.chunk(mem.alloc.alloc(class))
		c.init(class, size, key, value)
		if !bytes.Equal(c.key(), key) || !bytes.Equal(c.value(), value) || c.class() != class {
			t.Fatalf("value of %d bytes: read back key %q class %d and %d value bytes", tc.valueLen, c.key(), c.class(), len(c.value()))
		}
		if end := c.valueOff() + tc.valueLen; end > size {
			t.Fatalf("value of %d bytes ends at %d in a %d-byte chunk", tc.valueLen, end, size)
		}
		addr := uintptr(unsafe.Pointer(unsafe.SliceData(c))) + uintptr(c.valueOff())
		if got := addr%8 == 0; got != tc.aligned {
			t.Fatalf("value of %d bytes at offset %d: aligned = %v, want %v", tc.valueLen, c.valueOff(), got, tc.aligned)
		}
		// An overwrite in place decides again.
		c.setValue(value[:tc.valueLen/2], size)
		if c.valueOff()%8 != 0 || !bytes.Equal(c.value(), value[:tc.valueLen/2]) || !bytes.Equal(c.key(), key) {
			t.Fatalf("after shrinking to %d bytes: offset %d, key %q", tc.valueLen/2, c.valueOff(), c.key())
		}
	}
}
