package cache

import (
	"testing"

	"kv3d/internal/sim"
)

func TestNone(t *testing.T) {
	h := None()
	if h.HasL2 {
		t.Fatal("None should have no L2")
	}
	l2, mem := h.Split(1000)
	if l2 != 0 || mem != 1000 {
		t.Fatalf("no-L2 split = %v/%v", l2, mem)
	}
	if h.String() != "no L2" {
		t.Fatalf("name = %q", h.String())
	}
}

func TestL2MB2(t *testing.T) {
	h := L2MB2()
	if !h.HasL2 || h.L2HitRate != 0.995 {
		t.Fatalf("config = %+v", h)
	}
	l2, mem := h.Split(1000)
	if l2+mem != 1000 {
		t.Fatal("split must conserve misses")
	}
	if mem >= 100 {
		t.Fatalf("L2 should absorb most misses, %v went to memory", mem)
	}
	if h.String() != "2MB L2" {
		t.Fatalf("name = %q", h.String())
	}
}

func TestSplitZeroMisses(t *testing.T) {
	for _, h := range []Hierarchy{None(), L2MB2()} {
		l2, mem := h.Split(0)
		if l2 != 0 || mem != 0 {
			t.Fatal("zero misses should split to zero")
		}
	}
}

func TestStallLatencyNoL2(t *testing.T) {
	h := None()
	cycle := sim.Nanosecond
	got := h.StallLatency(100, cycle, 10*sim.Nanosecond)
	if got != sim.Microsecond {
		t.Fatalf("no-L2 stall = %v, want 100x10ns = 1us", got)
	}
}

func TestStallLatencyL2AbsorbsSlowMemory(t *testing.T) {
	h := L2MB2()
	cycle := sim.Nanosecond
	fast := h.StallLatency(1000, cycle, 10*sim.Nanosecond)
	slow := h.StallLatency(1000, cycle, 100*sim.Nanosecond)
	// With an L2, raising memory latency 10x should raise stalls far
	// less than 10x (the paper's §6.2 observation).
	if slow.Seconds()/fast.Seconds() > 2.0 {
		t.Fatalf("L2 not absorbing latency: %v -> %v", fast, slow)
	}
	noL2Fast := None().StallLatency(1000, cycle, 10*sim.Nanosecond)
	noL2Slow := None().StallLatency(1000, cycle, 100*sim.Nanosecond)
	if noL2Slow.Seconds()/noL2Fast.Seconds() < 9.9 {
		t.Fatal("no-L2 stalls must scale with memory latency")
	}
}

func TestStallLatencyL2CostsAtFastMemory(t *testing.T) {
	// At 10ns DRAM, the L2 lookup overhead makes the hierarchy slower
	// than going straight to memory — the paper's "L2 may hinder".
	cycle := sim.Nanosecond
	withL2 := L2MB2().StallLatency(1000, cycle, 10*sim.Nanosecond)
	without := None().StallLatency(1000, cycle, 10*sim.Nanosecond)
	if withL2 <= without {
		t.Fatalf("at 10ns, L2 (%v) should not beat direct access (%v)", withL2, without)
	}
}

// StallLatency computes the total (un-overlapped) miss latency for a
// block: L2 hits pay the L2 lookup, memory trips pay lookup plus the
// memory access latency supplied by the memory model. It is the
// reference the tests hold the hierarchy's parameters to; the stack
// model's stallTime adds the core's memory-level parallelism on top.
func (h Hierarchy) StallLatency(l1Misses float64, cycle sim.Duration, memLatency sim.Duration) sim.Duration {
	l2Served, memBound := h.Split(l1Misses)
	lookup := float64(cycle) * h.L2LatencyCycles
	total := l2Served*lookup + memBound*(lookup+float64(memLatency))
	return sim.Duration(total)
}
