package kvstore

import (
	"bytes"
	"encoding/binary"
	"math"
)

// handle names one slab chunk of a shard: page number << offBits |
// byte offset within the page >> 3. Page numbers start at 1, so the
// zero handle is "no item" — the nil of every hash chain, LRU list and
// free list. Nothing in the store points at an item; everything holds
// handles, so the collector has no per-item object to walk.
type handle uint32

// An item is its slab chunk: a fixed header, then the key, then the
// value. The header holds every link the item takes part in, which is
// why a stored item costs no memory outside the chunk (DESIGN.md,
// "Chunk layout").
const (
	offHNext    = 0  // u32 hash-chain next; free-list next while the chunk is free
	offKeyLen   = 4  // u8  key length; 0 marks a free chunk (valid keys have 1..250 bytes)
	offClass    = 5  // u8  slab class index; the top bit says the value is 8-byte aligned
	offBag      = 6  // u16 bag index (Bags policy; 0 under LRU)
	offPrev     = 8  // u32 LRU-list / bag-list previous
	offNext     = 12 // u32 LRU-list / bag-list next
	offCAS      = 16 // u64 CAS id; ids below the shard's flush watermark are dead
	offExpire   = 24 // u32 absolute expiry, unix seconds; 0 never, MaxUint32 already expired
	offFlags    = 28 // u32 client flags
	offValueLen = 32 // u24 value length
	offRef      = 35 // u8  1 = read since the Bags policy last passed over the item

	itemHeaderSize = 36
)

// maxItemBytes is the largest SlabPageSize, and so the largest item,
// New accepts: a value must be shorter than this for offValueLen's
// three bytes to hold its length.
const maxItemBytes = 1 << 24

// The offExpire word stores 0 for "never" and expireDead for the
// already-expired sentinel (expiredNow on the int64 surface); real
// dates past expireLast saturate there — February 2106.
const (
	expireDead = math.MaxUint32
	expireLast = math.MaxUint32 - 1
)

// valueAligned is the bit of the offClass byte that says the value
// starts at the next 8-byte boundary after the key rather than right
// behind it; maxClasses is how many slab classes the other bits name.
const (
	valueAligned = 1 << 7
	maxClasses   = 1 << 7
)

// chunk is a view of one item's bytes: the page from the chunk's first
// byte on. It is only ever held under the shard lock.
type chunk []byte

func (c chunk) hnext() handle     { return handle(binary.LittleEndian.Uint32(c[offHNext:])) }
func (c chunk) setHNext(h handle) { binary.LittleEndian.PutUint32(c[offHNext:], uint32(h)) }
func (c chunk) keyLen() int       { return int(c[offKeyLen]) }
func (c chunk) inUse() bool       { return c[offKeyLen] != 0 }
func (c chunk) markFree()         { c[offKeyLen] = 0 }
func (c chunk) class() int        { return int(c[offClass] &^ valueAligned) }
func (c chunk) bag() uint16       { return binary.LittleEndian.Uint16(c[offBag:]) }
func (c chunk) setBag(b uint16)   { binary.LittleEndian.PutUint16(c[offBag:], b) }
func (c chunk) prev() handle      { return handle(binary.LittleEndian.Uint32(c[offPrev:])) }
func (c chunk) setPrev(h handle)  { binary.LittleEndian.PutUint32(c[offPrev:], uint32(h)) }
func (c chunk) next() handle      { return handle(binary.LittleEndian.Uint32(c[offNext:])) }
func (c chunk) setNext(h handle)  { binary.LittleEndian.PutUint32(c[offNext:], uint32(h)) }
func (c chunk) casID() uint64     { return binary.LittleEndian.Uint64(c[offCAS:]) }
func (c chunk) setCAS(id uint64)  { binary.LittleEndian.PutUint64(c[offCAS:], id) }
func (c chunk) flags() uint32     { return binary.LittleEndian.Uint32(c[offFlags:]) }
func (c chunk) setFlags(f uint32) { binary.LittleEndian.PutUint32(c[offFlags:], f) }
func (c chunk) referenced() bool  { return c[offRef] != 0 }
func (c chunk) setReferenced()    { c[offRef] = 1 }
func (c chunk) clearReferenced()  { c[offRef] = 0 }

// valueLen loads the length with its neighbour offRef and masks that
// byte off: one load instead of three.
func (c chunk) valueLen() int {
	return int(binary.LittleEndian.Uint32(c[offValueLen:]) & (maxItemBytes - 1))
}

func (c chunk) setValueLen(n int) {
	c[offValueLen], c[offValueLen+1], c[offValueLen+2] = byte(n), byte(n>>8), byte(n>>16)
}

// expireAt returns the absolute expiry as the store's callers see it:
// unix seconds, 0 for never, expiredNow for the already-expired
// sentinel.
func (c chunk) expireAt() int64 {
	at := binary.LittleEndian.Uint32(c[offExpire:])
	if at == expireDead {
		return expiredNow
	}
	return int64(at)
}

// setExpireAt narrows an absolute expiry to the header's 32 bits:
// negative is the sentinel, dates the field cannot hold saturate.
func (c chunk) setExpireAt(t int64) {
	at := uint32(t)
	switch {
	case t < 0:
		at = expireDead
	case t > expireLast:
		at = expireLast
	}
	binary.LittleEndian.PutUint32(c[offExpire:], at)
}

// key returns the key bytes inside the chunk.
func (c chunk) key() []byte { return c[itemHeaderSize : itemHeaderSize+c.keyLen()] }

// valueOff is where the value starts: behind the key, or — when the
// chunk had the up to 7 bytes to spare — at the next 8-byte boundary, so
// that copying a large value in and out takes memmove's aligned path
// (more than twice as fast per byte on photo-sized values).
func (c chunk) valueOff() int {
	off := itemHeaderSize + c.keyLen()
	if c[offClass]&valueAligned != 0 {
		off = align8(off)
	}
	return off
}

// value returns the live value bytes inside the chunk.
func (c chunk) value() []byte {
	start := c.valueOff()
	return c[start : start+c.valueLen()]
}

// hasKey reports whether the chunk's key equals key.
func (c chunk) hasKey(key []byte) bool {
	return bytes.Equal(c.key(), key)
}

// setValue overwrites the value in place. The caller has checked that
// header + key + value fit size, the chunk's class size; the padding that
// aligns the value is taken from whatever the class leaves over and is
// not part of the item's footprint.
func (c chunk) setValue(value []byte, size int) {
	off := itemHeaderSize + c.keyLen()
	if aligned := align8(off); aligned+len(value) <= size {
		off = aligned
		c[offClass] |= valueAligned
	} else {
		c[offClass] &^= valueAligned
	}
	c.setValueLen(len(value))
	copy(c[off:], value)
}

// init writes a fresh item's identity into a chunk the allocator just
// handed out: key, value, class and cleared links.
func (c chunk) init(classIdx, size int, key, value []byte) {
	c.setHNext(0)
	c[offKeyLen] = byte(len(key))
	c[offClass] = byte(classIdx)
	c.setBag(0)
	c.setPrev(0)
	c.setNext(0)
	c.clearReferenced()
	copy(c[itemHeaderSize:], key)
	c.setValue(value, size)
}

// expired reports whether the item is past its TTL at time now. The
// sentinel a negative client exptime leaves is expired at every clock
// value, including the t=0 a fresh sim clock starts at.
func (c chunk) expired(now int64) bool {
	at := c.expireAt()
	return at < 0 || (at != 0 && now >= at)
}

// itemFootprint is the number of chunk bytes an item occupies: header,
// key and value, all of which live in the chunk. It decides the item's
// slab class and is what Stats.BytesUsed sums.
func itemFootprint(keyLen, valueLen int) int {
	return itemHeaderSize + keyLen + valueLen
}
