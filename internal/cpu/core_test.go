package cpu

import (
	"strings"
	"testing"

	"kv3d/internal/sim"
)

func TestCortexA7Parameters(t *testing.T) {
	c := CortexA7()
	if c.Kind != KindA7 || c.FreqHz != 1e9 {
		t.Fatalf("A7 = %+v", c)
	}
	if c.PowerW != 0.100 {
		t.Fatalf("A7 Table 1 figures wrong: %+v", c)
	}
}

func TestCortexA15Frequencies(t *testing.T) {
	c1, err := CortexA15(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if c1.PowerW != 0.600 {
		t.Fatalf("A15@1GHz power = %v", c1.PowerW)
	}
	c15, err := CortexA15(1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if c15.PowerW != 1.000 {
		t.Fatalf("A15@1.5GHz power = %v", c15.PowerW)
	}
	if _, err := CortexA15(2e9); err == nil {
		t.Fatal("unsupported frequency accepted")
	}
}

func TestMustCortexA15Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCortexA15(3GHz) should panic")
		}
	}()
	MustCortexA15(3e9)
}

func TestComputeTime(t *testing.T) {
	a7 := CortexA7()
	// 400 instructions at IPC 0.4 @1GHz = 1000 cycles = 1us.
	got := a7.ComputeTime(400)
	if got != sim.Microsecond {
		t.Fatalf("ComputeTime(400) = %v, want 1us", got)
	}
	if a7.ComputeTime(0) != 0 || a7.ComputeTime(-5) != 0 {
		t.Fatal("non-positive instruction counts should take no time")
	}
}

func TestA15FasterThanA7(t *testing.T) {
	a7, a15 := CortexA7(), MustCortexA15(1e9)
	r := a7.ComputeTime(10000).Seconds() / a15.ComputeTime(10000).Seconds()
	if r < 2.5 || r > 3.5 {
		t.Fatalf("A15/A7 compute ratio = %.2f, paper says ~3x", r)
	}
}

func TestStallTimeAppliesMLP(t *testing.T) {
	a15 := MustCortexA15(1e9)
	got := a15.StallTimeAt(100*sim.Microsecond, 0)
	if got != 50*sim.Microsecond {
		t.Fatalf("MLP=2 stall = %v, want 50us", got)
	}
	a7 := CortexA7()
	if a7.StallTimeAt(100*sim.Microsecond, 0) != 100*sim.Microsecond {
		t.Fatal("MLP=1 must not shrink stalls")
	}
	if a7.StallTimeAt(-5, 0) != 0 {
		t.Fatal("negative stall")
	}
}

func TestStreamTime(t *testing.T) {
	a7 := CortexA7() // 240 MB/s
	got := a7.StreamTime(240_000_000)
	if got < sim.Second-sim.Millisecond || got > sim.Second+sim.Millisecond {
		t.Fatalf("StreamTime(200MB) = %v, want ~1s", got)
	}
	if a7.StreamTime(0) != 0 {
		t.Fatal("zero bytes should take no time")
	}
}

func TestCyclePeriod(t *testing.T) {
	if got := CortexA7().CyclePeriod(); got != sim.Nanosecond {
		t.Fatalf("1GHz cycle = %v", got)
	}
}

func TestNames(t *testing.T) {
	if got := MustCortexA15(1.5e9).Name(); !strings.Contains(got, "A15") || !strings.Contains(got, "1.5") {
		t.Fatalf("name = %q", got)
	}
	if Kind(42).String() != "unknown-core" {
		t.Fatal("unknown kind name")
	}
}
