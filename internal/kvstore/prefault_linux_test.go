package kvstore

import (
	"errors"
	"os"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// resident reports, page by page, whether mem's pages are in memory
// (mincore).
func resident(t *testing.T, mem []byte) []bool {
	t.Helper()
	page := os.Getpagesize()
	vec := make([]byte, (len(mem)+page-1)/page)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&mem[0])), uintptr(len(mem)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	in := make([]bool, len(vec))
	for i, v := range vec {
		in[i] = v&1 != 0
	}
	return in
}

// TestPrefaultFaultsWholePagesInside: prefault makes exactly the whole
// pages inside its range resident — not the partial pages at the ends,
// and nothing when fewer than two whole pages lie inside.
func TestPrefaultFaultsWholePagesInside(t *testing.T) {
	page := os.Getpagesize()
	mmap := func() []byte {
		mem, err := syscall.Mmap(-1, 0, 8*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { syscall.Munmap(mem) })
		return mem
	}
	if err := syscall.Madvise(mmap(), madvPopulateWrite); errors.Is(err, syscall.EINVAL) {
		t.Skip("the kernel has no MADV_POPULATE_WRITE (Linux 5.14+)")
	}
	for _, c := range []struct {
		name     string
		from, to int // the range, in bytes
		want     []bool
	}{
		{"four whole pages", 100, 5*page + 100, []bool{false, true, true, true, true, false, false, false}},
		{"aligned", 2 * page, 5 * page, []bool{false, false, true, true, true, false, false, false}},
		{"one whole page", 100, 2*page + 100, make([]bool, 8)},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := mmap()
			if got := resident(t, mem); got[0] || got[7] {
				t.Fatalf("a fresh mapping is already resident: %v", got)
			}
			prefault(mem[c.from:c.to])
			if got := resident(t, mem); !slices.Equal(got, c.want) {
				t.Fatalf("resident pages after prefault(mem[%d:%d]) = %v, want %v", c.from, c.to, got, c.want)
			}
		})
	}
}
