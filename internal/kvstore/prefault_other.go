//go:build !linux

package kvstore

// prefault does nothing off Linux: the copy into the chunk faults its
// pages in as it writes them.
func prefault([]byte) {}
