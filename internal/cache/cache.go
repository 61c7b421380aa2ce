// Package cache models the on-stack cache hierarchy. Mercury's premise
// (following TSSP) is that the 3D DRAM is fast enough to skip the L2
// entirely; Iridium needs a 2MB L2 to keep the instruction footprint out
// of Flash. The model therefore answers one question per request: of the
// L1 misses an instruction block generates, how many are absorbed by the
// L2 (at L2 latency) and how many go to memory?
package cache

// Hierarchy describes the cache configuration above memory.
type Hierarchy struct {
	// HasL2 toggles the 2MB L2.
	HasL2 bool
	// L2HitRate is the fraction of L1 misses the L2 absorbs in steady
	// state. The memcached instruction footprint plus hot metadata fit
	// in 2MB, so this is high; the remainder is per-request-unique data
	// (hash bucket, item header, socket buffers) that no cache retains.
	L2HitRate float64
	// L2LatencyCycles is the lookup cost in core cycles, paid by L2 hits
	// (and added to misses on their way to memory).
	L2LatencyCycles float64
}

// None returns the cache-less configuration: every L1 miss goes to memory.
func None() Hierarchy { return Hierarchy{} }

// L2MB2 returns the paper's 2MB L2 configuration.
func L2MB2() Hierarchy {
	return Hierarchy{
		HasL2:           true,
		L2HitRate:       0.995,
		L2LatencyCycles: 12,
	}
}

// Split divides a block's L1 misses into L2-served and memory-bound
// counts. Without an L2, everything is memory-bound.
func (h Hierarchy) Split(l1Misses float64) (l2Served, memBound float64) {
	if l1Misses <= 0 {
		return 0, 0
	}
	if !h.HasL2 {
		return 0, l1Misses
	}
	l2Served = l1Misses * h.L2HitRate
	return l2Served, l1Misses - l2Served
}

// String names the configuration for experiment labels.
func (h Hierarchy) String() string {
	if h.HasL2 {
		return "2MB L2"
	}
	return "no L2"
}
