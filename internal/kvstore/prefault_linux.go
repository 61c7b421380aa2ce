package kvstore

import (
	"os"
	"syscall"
	"unsafe"
)

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14): fault a range
// in, writable, as a write to each page would, without writing it.
const madvPopulateWrite = 23

var osPageSize = uintptr(os.Getpagesize())

// prefault faults in, with one madvise, the whole OS pages that lie
// inside b, when there are at least two: a copy into never-touched slab
// memory otherwise takes one page fault per page, and faulting them in
// one call costs a fraction of that. The partial pages at b's ends are
// left to the copy, so nothing outside b becomes resident. An older
// kernel refuses the advice (EINVAL), and then the copy faults as
// before; any other failure leaves it the same.
func prefault(b []byte) {
	if len(b) == 0 {
		return
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (start + osPageSize - 1) &^ (osPageSize - 1)
	hi := (start + uintptr(len(b))) &^ (osPageSize - 1)
	if hi < lo+2*osPageSize {
		return
	}
	_ = syscall.Madvise(b[lo-start:hi-start], madvPopulateWrite)
}
