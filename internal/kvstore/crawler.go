package kvstore

import (
	"sync"
	"time"
)

// Crawler is the background expiry reaper (memcached's lru_crawler):
// expired items normally die lazily on access, so a cache with cold
// expired keys holds memory hostage. The crawler sweeps shards on an
// interval and reaps anything past its TTL or below the flush watermark.
type Crawler struct {
	store    *Store
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once

	mu      sync.Mutex
	sweeps  uint64
	reaped  uint64
	visited uint64
}

// StartCrawler begins background sweeps at the given interval; it
// returns the running crawler. Stop it before discarding the store.
func (st *Store) StartCrawler(interval time.Duration) *Crawler {
	if interval <= 0 {
		interval = time.Second
	}
	c := &Crawler{
		store:    st,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

func (c *Crawler) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.interval) //nolint:kv3d -- the crawler is a live-server background reaper; sims never start it and call SweepExpired explicitly
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			reaped, visited := c.store.SweepExpired()
			c.mu.Lock()
			c.sweeps++
			c.reaped += reaped
			c.visited += visited
			c.mu.Unlock()
		}
	}
}

// Stop halts the crawler and waits for the current sweep to finish.
func (c *Crawler) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// Stats reports the crawler's lifetime counters.
func (c *Crawler) Stats() (sweeps, reaped, visited uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweeps, c.reaped, c.visited
}

// SweepExpired synchronously reaps every expired or flushed item,
// returning how many were reaped and how many were visited. Exposed for
// tests and for callers that prefer explicit scheduling.
func (st *Store) SweepExpired() (reaped, visited uint64) {
	now := st.clock()
	for _, sh := range st.shards {
		sh.mu.Lock()
		r, v := sh.s.sweepExpired(now)
		sh.mu.Unlock()
		reaped += r
		visited += v
	}
	return reaped, visited
}

// sweepExpired is the per-shard sweep, run under the shard lock.
func (s *shard) sweepExpired(now int64) (reaped, visited uint64) {
	s.fireFlush(now)
	var dead []handle
	s.table.forEach(func(h handle, c chunk) {
		visited++
		if s.dead(c, now) {
			dead = append(dead, h)
		}
	})
	for _, h := range dead {
		c := s.alloc.chunk(h)
		s.reap(h, c, fnv1a64(c.key()))
		s.stats.Expired++
	}
	return uint64(len(dead)), visited
}
