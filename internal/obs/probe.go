package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing probe. The atomic makes it safe
// on the live server's connection goroutines; inside the single-threaded
// simulation the atomic op is deterministic and nearly free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Probe is one named value in a registry snapshot.
type Probe struct {
	Name  string
	Value float64
}

// Registry holds named counters, registered once and incremented on
// hot paths. Snapshot order is sorted by name, so registry contents
// serialize deterministically regardless of registration order.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter // guarded by mu
}

// NewRegistry returns an empty probe registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Reusing a name returns the same counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot reads every counter and returns them sorted by name.
func (r *Registry) Snapshot() []Probe {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Probe, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, Probe{Name: name, Value: float64(c.Value())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
