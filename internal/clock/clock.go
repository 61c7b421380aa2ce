// Package clock is the live path's one source of time: the store, the
// sessions, the server, the client and the commands read time and wait
// on it only through a Clock, so a test can run them all on one Fake.
// It is the one package the determinism lint lets read the host clock.
package clock

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"kv3d/internal/sim"
)

// Clock reads time and waits on it.
type Clock interface {
	// Now is the time in nanoseconds since the Unix epoch.
	Now() sim.Ns
	// After returns a channel that receives the time once d has passed,
	// and a stop func that releases the timer early; d <= 0 fires at once.
	After(d time.Duration) (<-chan sim.Ns, func())
	// Sleep returns once d has passed.
	Sleep(d time.Duration)
}

// Wall is the host clock: wall time read once, at startup, plus the
// monotonic time since. A read costs one monotonic clock read where
// time.Now takes two, and the wall clock stepping cannot move it.
var Wall Clock = func() wall { t := time.Now(); return wall{t, sim.Ns(t.UnixNano())} }()

type wall struct {
	base   time.Time
	baseNs sim.Ns
}

func (w wall) Now() sim.Ns { return w.baseNs + sim.Ns(time.Since(w.base)) }

func (w wall) After(d time.Duration) (<-chan sim.Ns, func()) {
	ch := make(chan sim.Ns, 1)
	t := time.AfterFunc(d, func() { ch <- w.Now() })
	return ch, func() { t.Stop() }
}

func (wall) Sleep(d time.Duration) { time.Sleep(d) }

// Deadline is the socket deadline d from now, on the host clock whatever
// clock the caller reads: sockets run in real time.
func Deadline(d time.Duration) time.Time { return time.Now().Add(d) }

// Fake is virtual time that moves only when told to. Advance fires, in
// deadline order, every After it passes; each receives its own
// deadline. Sleep is an Advance by the sleeper: it moves the fake
// forward by d and returns at once, so it never hangs and never waits
// in real time, and what was slept shows on the fake's timeline.
type Fake struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     sim.Ns
	waiters []*waiter
}

type waiter struct {
	at sim.Ns
	ch chan sim.Ns
}

// NewFake returns a Fake reading start.
func NewFake(start sim.Ns) *Fake {
	f := &Fake{now: start}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *Fake) Now() sim.Ns {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) After(d time.Duration) (<-chan sim.Ns, func()) {
	f.mu.Lock()
	w := &waiter{at: f.now + sim.Ns(d), ch: make(chan sim.Ns, 1)}
	if d <= 0 {
		w.ch <- f.now
	} else {
		f.waiters = append(f.waiters, w)
		f.cond.Broadcast()
	}
	f.mu.Unlock()
	return w.ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.waiters = slices.DeleteFunc(f.waiters, func(x *waiter) bool { return x == w })
	}
}

func (f *Fake) Sleep(d time.Duration) { f.Advance(d) }

// Advance moves the fake forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now += sim.Ns(d)
	slices.SortStableFunc(f.waiters, func(a, b *waiter) int { return cmp.Compare(a.at, b.at) })
	for len(f.waiters) > 0 && f.waiters[0].at <= f.now {
		f.waiters[0].ch <- f.waiters[0].at
		f.waiters = f.waiters[1:]
	}
}

// BlockUntil returns once n goroutines wait on an unfired After, so an
// Advance cannot race a timer that is yet to be set.
func (f *Fake) BlockUntil(n int) { //nolint:kv3d -- kvstore's crawler tests wait on the crawler's timer with it
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.waiters) < n {
		f.cond.Wait()
	}
}
