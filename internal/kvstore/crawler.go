package kvstore

import (
	"sync"
	"time"
)

// Crawler is the background expiry reaper (memcached's lru_crawler):
// expired items normally die lazily on access, so a cache with cold
// expired keys holds memory hostage. The crawler sweeps shards on an
// interval and reaps anything past its TTL or below the flush watermark.
// Every reap is counted in Stats().Expired (`expired_unfetched`).
type Crawler struct {
	store    *Store
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
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

// run sweeps one interval after the previous sweep ended, on the
// store's clock.
func (c *Crawler) run() {
	defer close(c.done)
	for {
		tick, stop := c.store.clock.After(c.interval)
		select {
		case <-c.stop:
			stop()
			return
		case <-tick:
			c.store.SweepExpired()
		}
	}
}

// Stop halts the crawler and waits for the current sweep to finish.
func (c *Crawler) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// SweepExpired synchronously reaps every expired or flushed item,
// returning how many were reaped and how many were visited. Exposed for
// tests and for callers that prefer explicit scheduling.
func (st *Store) SweepExpired() (reaped, visited uint64) {
	now := st.lazyNow()
	for _, sh := range st.shards {
		sh.mu.Lock()
		r, v := sh.s.sweepExpired(&now)
		sh.mu.Unlock()
		reaped += r
		visited += v
	}
	return reaped, visited
}

// sweepExpired is the per-shard sweep, run under the shard lock.
func (s *shard) sweepExpired(now *lazyNow) (reaped, visited uint64) {
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
