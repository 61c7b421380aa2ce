package netmodel

import (
	"testing"
	"testing/quick"

	"kv3d/internal/sim"
)

func TestSegments(t *testing.T) {
	cases := map[int64]int64{
		0:              1,
		1:              1,
		MaxSegment:     1,
		MaxSegment + 1: 2,
		1 << 20:        (1<<20 + MaxSegment - 1) / MaxSegment,
	}
	for in, want := range cases {
		if got := Segments(in); got != want {
			t.Errorf("Segments(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFrameBytes(t *testing.T) {
	if got := FrameBytes(100); got != 100+HeaderBytes {
		t.Fatalf("FrameBytes(100) = %d", got)
	}
	// Multi-segment payloads pay one header per segment.
	payload := int64(3 * MaxSegment)
	if got := FrameBytes(payload); got != payload+3*HeaderBytes {
		t.Fatalf("FrameBytes(3 segs) = %d", got)
	}
}

func TestSerializationTime(t *testing.T) {
	// 1.25 GB/s: 1250 bytes in 1us.
	got := SerializationTime(1250 - HeaderBytes)
	if got != sim.Microsecond {
		t.Fatalf("SerializationTime = %v, want 1us", got)
	}
}

func TestWireTimeIncludesPropagation(t *testing.T) {
	if WireTime(0) <= PropagationDelay {
		t.Fatal("wire time must include serialization and propagation")
	}
	if got, want := WireTime(100)-SerializationTime(100), sim.Duration(PropagationDelay); got != want {
		t.Fatalf("propagation component = %v", got)
	}
}

func TestWireTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return WireTime(x) <= WireTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkFIFODelivery(t *testing.T) {
	s := sim.New()
	l := NewLink(s)
	var order []int
	s.At(0, func() {
		l.Send(1<<20, func() { order = append(order, 1) }) // big first
		l.Send(64, func() { order = append(order, 2) })    // small queued after
	})
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("link must deliver FIFO, got %v", order)
	}
}

func TestLinkTiming(t *testing.T) {
	s := sim.New()
	l := NewLink(s)
	var done sim.Time
	s.At(0, func() { l.Send(64, func() { done = s.Now() }) })
	s.Run()
	want := sim.Time(0).Add(WireTime(64))
	if done != want {
		t.Fatalf("delivery at %v, want %v", done, want)
	}
}

func TestMACForward(t *testing.T) {
	s := sim.New()
	m := NewMAC(s)
	var done sim.Time
	s.At(0, func() { m.Forward(64, func() { done = s.Now() }) })
	s.Run()
	if done == 0 {
		t.Fatal("MAC never completed")
	}
	// MAC must be faster than the wire for the same payload (cut-through
	// buffers above wire speed).
	if sim.Duration(done) >= WireTime(64) {
		t.Fatalf("MAC (%v) should beat wire (%v)", sim.Duration(done), WireTime(64))
	}
}

func TestValidate(t *testing.T) {
	// The segment size is load-bearing for every experiment.
	if MaxSegment <= 0 || MaxSegment > MTU {
		t.Fatalf("bad segment size %d", MaxSegment)
	}
}

// WireTime is the one-way delivery time for a payload: serialization
// plus propagation.
func WireTime(payload int64) sim.Duration {
	return SerializationTime(payload) + PropagationDelay
}
