package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Second != 1e12 {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if Microsecond.Micros() != 1 {
		t.Fatalf("Micros() of 1us = %v", Microsecond.Micros())
	}
	if got := FromSeconds(10e-9).Nanos(); got != 10 {
		t.Fatalf("FromSeconds(10e-9).Nanos() = %v", got)
	}
	if got := FromSeconds(-1); got != 0 {
		t.Fatalf("negative seconds should clamp to 0, got %v", got)
	}
	if got := FromSeconds(1e30); got != Duration(math.MaxInt64) {
		t.Fatalf("huge seconds should saturate, got %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{10 * Nanosecond, "10.000ns"},
		{3 * Microsecond, "3.000us"},
		{2 * Millisecond, "2.000ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeAddSaturates(t *testing.T) {
	tm := MaxTime - 5
	if got := tm.Add(100); got != MaxTime {
		t.Fatalf("Add should saturate at MaxTime, got %d", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock should end at 30, got %d", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestAfterFromWithinEvent(t *testing.T) {
	s := New()
	var fired Time
	s.At(100, func() {
		s.After(50, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 150 {
		t.Fatalf("chained event fired at %d, want 150", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("RunUntil(50) ran %d events, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %d, want 50", s.Now())
	}
	if len(s.queue) != 5 {
		t.Fatalf("pending = %d, want 5", len(s.queue))
	}
	s.Run()
	if count != 10 {
		t.Fatalf("after Run, count = %d, want 10", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunFor(2 * Second)
	if s.Now() != Time(2*Second) {
		t.Fatalf("idle RunFor should advance clock, now = %d", s.Now())
	}
}

func TestSelfReschedulingProcess(t *testing.T) {
	s := New()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			s.After(Microsecond, tick)
		}
	}
	s.After(Microsecond, tick)
	s.Run()
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
	if s.Now() != Time(100*Microsecond) {
		t.Fatalf("clock = %d, want 100us", s.Now())
	}
}

func TestEventOrderingProperty(t *testing.T) {
	// Property: regardless of insertion order, events execute in
	// nondecreasing time order.
	f := func(times []uint16) bool {
		s := New()
		var fired []Time
		for _, raw := range times {
			tm := Time(raw)
			s.At(tm, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSingleServerFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		s.At(0, func() {
			r.Acquire(10*Nanosecond, func() { done = append(done, s.Now()) })
		})
	}
	s.Run()
	want := []Time{Time(10 * Nanosecond), Time(20 * Nanosecond), Time(30 * Nanosecond)}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		s.At(0, func() {
			r.Acquire(10*Nanosecond, func() { done = append(done, s.Now()) })
		})
	}
	s.Run()
	// Two at t=10ns, two at t=20ns.
	if done[0] != Time(10*Nanosecond) || done[1] != Time(10*Nanosecond) {
		t.Fatalf("first pair at %v,%v", done[0], done[1])
	}
	if done[2] != Time(20*Nanosecond) || done[3] != Time(20*Nanosecond) {
		t.Fatalf("second pair at %v,%v", done[2], done[3])
	}
}

func TestResourceQueueDelay(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var got Duration
	wait := func(i ServiceInfo) { got += i.Wait() }
	s.At(0, func() {
		r.AcquireInfo(100*Nanosecond, wait)
		r.AcquireInfo(100*Nanosecond, wait)
	})
	s.Run()
	if got != 100*Nanosecond {
		t.Fatalf("queue delay = %v, want 100ns", got)
	}
}

func TestResourceZeroServersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero servers")
		}
	}()
	NewResource(New(), 0)
}

func TestResourceNegativeServiceClamped(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	fired := false
	s.At(5, func() { r.Acquire(-10, func() { fired = true }) })
	s.Run()
	if !fired || s.Now() != 5 {
		t.Fatalf("negative service should complete instantly at t=5, now=%d fired=%v", s.Now(), fired)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look identical (%d collisions)", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(100 * Microsecond).Seconds()
	}
	mean := sum / float64(n)
	want := (100 * Microsecond).Seconds()
	if mean < want*0.95 || mean > want*1.05 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, want)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed generator is stuck")
	}
}

func TestAcquireInfoTimings(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var infos []ServiceInfo
	r.AcquireInfo(30*Nanosecond, func(i ServiceInfo) { infos = append(infos, i) })
	r.AcquireInfo(30*Nanosecond, func(i ServiceInfo) { infos = append(infos, i) })
	s.Run()
	if len(infos) != 2 {
		t.Fatalf("got %d completions, want 2", len(infos))
	}
	first, second := infos[0], infos[1]
	if first.Wait() != 0 || first.Completed.Sub(first.Started) != 30*Nanosecond {
		t.Fatalf("first job wait=%v info=%+v", first.Wait(), first)
	}
	if second.Wait() != 30*Nanosecond || second.Completed.Sub(second.Started) != 30*Nanosecond {
		t.Fatalf("second job wait=%v info=%+v", second.Wait(), second)
	}
	if second.Completed != Time(60*Nanosecond) {
		t.Fatalf("second job completed at %v", second.Completed)
	}
}

func TestResourceHooksFire(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var enq, started, completed int
	var sawQueueLen int
	r.SetHooks(&ResourceHooks{
		Enqueued:  func(now Time, queueLen int) { enq++; sawQueueLen = queueLen },
		Started:   func(now Time, wait Duration) { started++ },
		Completed: func(now Time, wait, service Duration) { completed++ },
	})
	r.Acquire(10*Nanosecond, nil) // immediate start: no Enqueued, no Started (wait==0)
	r.Acquire(10*Nanosecond, nil) // queues, then starts after waiting
	s.Run()
	if enq != 1 || sawQueueLen != 1 {
		t.Fatalf("Enqueued fired %d times (queueLen %d), want 1/1", enq, sawQueueLen)
	}
	if started != 1 {
		t.Fatalf("Started fired %d times, want 1 (only the waiting job)", started)
	}
	if completed != 2 {
		t.Fatalf("Completed fired %d times, want 2", completed)
	}
}

func TestDispatchHook(t *testing.T) {
	s := New()
	var times []Time
	s.SetDispatchHook(func(now Time) { times = append(times, now) })
	s.After(5*Nanosecond, func() {})
	s.After(10*Nanosecond, func() {})
	s.Run()
	if len(times) != 2 || times[0] != Time(5*Nanosecond) || times[1] != Time(10*Nanosecond) {
		t.Fatalf("dispatch hook saw %v", times)
	}
	s.SetDispatchHook(nil)
	s.After(Nanosecond, func() {})
	s.Run()
	if len(times) != 2 {
		t.Fatal("removed hook still fired")
	}
}

// RunFor executes events for a span of simulated time from Now. Only
// TestRunForAdvancesIdleClock calls it, and what that test pins is
// shipped: RunUntil's documented advance of an idle clock to its
// deadline, a branch TestRunUntil, which stops on an event, never
// reaches.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }
