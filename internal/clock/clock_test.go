package clock

import (
	"sync"
	"testing"
	"time"

	"kv3d/internal/sim"
)

// fired reports what ch has received, without waiting.
func fired(ch <-chan sim.Ns) (sim.Ns, bool) {
	select {
	case at := <-ch:
		return at, true
	default:
		return 0, false
	}
}

// TestAdvanceFiresInDeadlineOrder: each Advance fires exactly the
// timers whose deadline it passes, earliest first, and each receives its
// own deadline rather than the time the Advance ended at.
func TestAdvanceFiresInDeadlineOrder(t *testing.T) {
	f := NewFake(100)
	late, _ := f.After(30)
	early, _ := f.After(10)
	mid, _ := f.After(20)
	f.Advance(15)
	if at, ok := fired(early); !ok || at != 110 {
		t.Fatalf("early timer: fired %v at %d, want at 110", ok, at)
	}
	if _, ok := fired(mid); ok {
		t.Fatal("a timer due at 120 fired at 115")
	}
	f.Advance(100)
	if at, ok := fired(mid); !ok || at != 120 {
		t.Fatalf("mid timer: fired %v at %d, want at 120", ok, at)
	}
	if at, ok := fired(late); !ok || at != 130 {
		t.Fatalf("late timer: fired %v at %d, want at 130", ok, at)
	}
	if now := f.Now(); now != 215 {
		t.Fatalf("Now = %d, want 215", now)
	}
}

// TestAfterNonPositiveFiresAtOnce: a timer for no time, or for negative
// time, fires when it is set, on both clocks.
func TestAfterNonPositiveFiresAtOnce(t *testing.T) {
	f := NewFake(7)
	for _, d := range []time.Duration{0, -time.Second} {
		ch, stop := f.After(d)
		if at, ok := fired(ch); !ok || at != 7 {
			t.Fatalf("Fake.After(%v): fired %v at %d, want at once at 7", d, ok, at)
		}
		stop()
		ch, stop = Wall.After(d)
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("Wall.After(%v) never fired", d)
		}
		stop()
	}
}

// TestStopReleasesTimer: a stopped timer never fires and no longer
// counts as a waiter.
func TestStopReleasesTimer(t *testing.T) {
	f := NewFake(0)
	ch, stop := f.After(10)
	stop()
	f.Advance(20)
	if _, ok := fired(ch); ok {
		t.Fatal("a stopped timer fired")
	}
	if n := len(f.waiters); n != 0 {
		t.Fatalf("%d waiters left after stop", n)
	}
}

// TestFakeSleepAdvances: Sleep returns at once, having moved the fake
// by d and fired what that passed — it never waits in real time.
func TestFakeSleepAdvances(t *testing.T) {
	f := NewFake(0)
	ch, _ := f.After(time.Hour)
	start := time.Now()
	f.Sleep(time.Hour)
	if real := time.Since(start); real > time.Second {
		t.Fatalf("Fake.Sleep(1h) took %v of real time", real)
	}
	if now := f.Now(); now != sim.Ns(time.Hour) {
		t.Fatalf("Now after Sleep(1h) = %d", now)
	}
	if _, ok := fired(ch); !ok {
		t.Fatal("Sleep did not fire the timer it passed")
	}
}

// TestBlockUntilThenAdvance is the pattern the clock-driven tests use:
// wait until the goroutine under test has set its timer, then advance
// past it. Many goroutines set and wait concurrently with the advances.
func TestBlockUntilThenAdvance(t *testing.T) {
	f := NewFake(0)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, stop := f.After(time.Duration(i+1) * time.Millisecond)
			defer stop()
			if at := <-ch; at != sim.Ns(time.Duration(i+1)*time.Millisecond) {
				t.Errorf("timer %d fired at %d", i, at)
			}
		}(i)
	}
	f.BlockUntil(n)
	for i := 0; i < n; i++ {
		f.Advance(time.Millisecond)
		f.Now()
	}
	wg.Wait()
}

// TestWallNowTracksHostClock: Wall's base-plus-monotonic reading stays
// within a second of the host's wall clock and never runs backwards.
func TestWallNowTracksHostClock(t *testing.T) {
	a := Wall.Now()
	host := time.Now().UnixNano()
	b := Wall.Now()
	if b < a {
		t.Fatalf("Wall ran backwards: %d then %d", a, b)
	}
	if d := time.Duration(int64(b) - host); d < -time.Second || d > time.Second {
		t.Fatalf("Wall is %v off the host clock", d)
	}
	if d := time.Until(Deadline(time.Minute)); d <= 0 || d > time.Minute {
		t.Fatalf("Deadline(1m) is %v away", d)
	}
}
