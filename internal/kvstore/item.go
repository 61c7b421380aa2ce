package kvstore

import (
	"bytes"
	"encoding/binary"
	"math"
)

// handle names one slab chunk of a shard: page number << offBits |
// byte offset within the page >> 3. Page numbers start at 1, so the
// zero handle is "no item" — the nil of the table's slots and of every
// free list. Nothing in the store points at an item; everything holds
// handles, so the collector has no per-item object to walk.
type handle uint32

// An item is its slab chunk: a fixed header, then the key, then the
// value. The header holds no link: the table's slots live outside the
// chunks and eviction finds items by address, so a stored item costs no
// memory outside its chunk but its slot (DESIGN.md, "Chunk layout").
// A free chunk's free-list link lives in the CAS field, which is dead
// while the key length is 0.
const (
	offKeyLen   = 0  // u8  key length; 0 marks a free chunk (valid keys have 1..250 bytes)
	offClass    = 1  // u8  slab class index; the top bit says the value is 8-byte aligned
	offCAS      = 2  // u64 CAS id; ids below the shard's flush watermark are dead
	offExpire   = 10 // u32 absolute expiry, unix seconds; 0 never, MaxUint32 already expired
	offFlags    = 14 // u32 client flags
	offValueLen = 18 // u24 value length
	offRef      = 21 // u8  bit 0 referenced, bits 1–6 pin count, bit 7 unlinked while pinned

	itemHeaderSize = 22

	offFreeNext = offCAS // u32 free-list next, while the chunk is free
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

// The offRef byte has three tenants. The referenced mark is the CLOCK
// second chance. The pin count is how many senders are reading the
// value outside the shard lock (Store.GetBatchInto), or writing it
// (Store.Reserve); a pinned chunk is never rewritten, freed or
// re-carved. The unlinked mark says the item is not in the table — it
// left while pinned, or is a reservation not yet committed — so the
// last Unpin frees the chunk.
const (
	refMark      = 1 << 0
	pinOne       = 1 << 1
	pinMask      = 0x3f << 1
	unlinkedMark = 1 << 7
)

// chunk is a view of one item's bytes: the page from the chunk's first
// byte on. It is only ever held under the shard lock.
type chunk []byte

func (c chunk) freeNext() handle     { return handle(binary.LittleEndian.Uint32(c[offFreeNext:])) }
func (c chunk) setFreeNext(h handle) { binary.LittleEndian.PutUint32(c[offFreeNext:], uint32(h)) }
func (c chunk) keyLen() int          { return int(c[offKeyLen]) }
func (c chunk) inUse() bool          { return c[offKeyLen] != 0 }
func (c chunk) markFree()            { c[offKeyLen] = 0 }
func (c chunk) class() int           { return int(c[offClass] &^ valueAligned) }
func (c chunk) casID() uint64        { return binary.LittleEndian.Uint64(c[offCAS:]) }
func (c chunk) setCAS(id uint64)     { binary.LittleEndian.PutUint64(c[offCAS:], id) }
func (c chunk) flags() uint32        { return binary.LittleEndian.Uint32(c[offFlags:]) }
func (c chunk) setFlags(f uint32)    { binary.LittleEndian.PutUint32(c[offFlags:], f) }
func (c chunk) referenced() bool     { return c[offRef]&refMark != 0 }
func (c chunk) setReferenced()       { c[offRef] |= refMark }
func (c chunk) clearReferenced()     { c[offRef] &^= refMark }
func (c chunk) pinned() bool         { return c[offRef]&pinMask != 0 }
func (c chunk) pinFull() bool        { return c[offRef]&pinMask == pinMask }
func (c chunk) pin()                 { c[offRef] += pinOne }
func (c chunk) unpin()               { c[offRef] -= pinOne }
func (c chunk) unlinked() bool       { return c[offRef]&unlinkedMark != 0 }
func (c chunk) setUnlinked()         { c[offRef] |= unlinkedMark }
func (c chunk) clearUnlinked()       { c[offRef] &^= unlinkedMark }
func (c chunk) clearRef()            { c[offRef] = 0 }

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
// header + key + value fit size, the chunk's class size.
func (c chunk) setValue(value []byte, size int) { copy(c.place(len(value), size), value) }

// place sets the length of an n-byte value and returns the bytes it
// goes in. The padding that aligns the value is taken from whatever the
// class leaves over and is not part of the item's footprint.
func (c chunk) place(n, size int) []byte {
	off := itemHeaderSize + c.keyLen()
	if aligned := align8(off); aligned+n <= size {
		off = aligned
		c[offClass] |= valueAligned
	} else {
		c[offClass] &^= valueAligned
	}
	c.setValueLen(n)
	return c[off : off+n : off+n]
}

// init writes a fresh item's identity into a chunk the allocator just
// handed out — key, class, a cleared ref byte and the length of an
// n-byte value — and returns the bytes the value goes in. The CAS field
// still holds the free-list link until the store writes the item's id.
func (c chunk) init(classIdx, size int, key []byte, n int) []byte {
	c[offKeyLen] = byte(len(key))
	c[offClass] = byte(classIdx)
	c.clearRef()
	copy(c[itemHeaderSize:], key)
	return c.place(n, size)
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
