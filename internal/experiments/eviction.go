package experiments

import (
	"container/list"
	"fmt"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvstore"
	"kv3d/internal/report"
	"kv3d/internal/sim"
	"kv3d/internal/workload"
)

func init() {
	registry["eviction"] = EvictionQuality
}

// EvictionQuality compares the store's CLOCK eviction against strict
// LRU on hit rate under Zipf traffic with cache-fill-on-miss — the
// question Wiggins & Langston's design raises: a read path that writes
// no list removes the read-path lock (the Table 4 scaling win), but does
// its weaker recency signal cost hits? The store column is the store
// itself; the LRU column comes from exactLRU, holding as many items as
// the store does, fed the identical request stream.
func EvictionQuality(o Options) (Result, error) {
	requests := 150_000
	if o.Quick {
		requests = 30_000
	}
	t := &report.Table{
		Title:   "Eviction quality: strict LRU vs the store's CLOCK (fill-on-miss)",
		Columns: []string{"Zipf skew", "Cache/working set", "LRU hit %", "store hit %", "store deficit"},
		Note:    "identical request streams; deficit = LRU hit rate - store hit rate",
	}
	type scenario struct {
		skew      float64
		memBytes  int64
		valueSize int64
		keys      int
	}
	scenarios := []scenario{
		{0.99, 8 << 20, 1024, 40_000},  // cache ~20% of working set
		{0.99, 24 << 20, 1024, 40_000}, // cache ~61%
		{1.2, 8 << 20, 1024, 40_000},   // hotter traffic
	}
	for _, sc := range scenarios {
		value := make([]byte, sc.valueSize)
		capacity, err := storeCapacity(sc.memBytes, value, sc.keys)
		if err != nil {
			return Result{}, err
		}
		lru, err := runFillOnMiss(newExactLRU(capacity), sc.keys, sc.skew, requests)
		if err != nil {
			return Result{}, err
		}
		st, err := newEvictionStore(sc.memBytes)
		if err != nil {
			return Result{}, err
		}
		store, err := runFillOnMiss(storeCache{st, value}, sc.keys, sc.skew, requests)
		if err != nil {
			return Result{}, err
		}
		coverage := float64(sc.memBytes) / (float64(sc.keys) * float64(sc.valueSize))
		t.AddRow(sc.skew,
			fmt.Sprintf("%.0f%%", coverage*100),
			fmt.Sprintf("%.1f", lru*100),
			fmt.Sprintf("%.1f", store*100),
			fmt.Sprintf("%.1f pp", (lru-store)*100))
	}
	return Result{ID: "eviction", Tables: []*report.Table{t}}, nil
}

// newEvictionStore builds the one-shard store a scenario runs against.
// The clock is logical (one second per store call) because the
// determinism contract (LINTING.md) forbids the wall-clock default in
// sim-reachable code: the table must replay byte-identically.
func newEvictionStore(memBytes int64) (*kvstore.Store, error) {
	cfg := kvstore.DefaultConfig(memBytes)
	cfg.Shards = 1
	cfg.Clock = tickClock{clock.NewFake(0)}
	return kvstore.New(cfg)
}

// tickClock is a logical clock one second further on every read.
type tickClock struct{ *clock.Fake }

func (c tickClock) Now() sim.Ns {
	c.Advance(time.Second)
	return c.Fake.Now()
}

// storeCapacity is how many of a scenario's items the store holds once
// every key has been stored: the size of the exact-LRU reference.
func storeCapacity(memBytes int64, value []byte, keys int) (int, error) {
	st, err := newEvictionStore(memBytes)
	if err != nil {
		return 0, err
	}
	for i := 0; i < keys; i++ {
		if err := st.Set(fmt.Sprintf("key:%08d", i), value, 0, 0); err != nil { // the workload generator's key names
			return 0, err
		}
	}
	return int(st.Stats().CurrItems), nil
}

// fillOnMissCache is what runFillOnMiss drives: lookup reports a hit,
// fill stores a key that missed.
type fillOnMissCache interface {
	lookup(key string) bool
	fill(key string) error
}

type storeCache struct {
	st    *kvstore.Store
	value []byte
}

func (c storeCache) lookup(key string) bool {
	_, ok := c.st.Get(key)
	return ok
}

func (c storeCache) fill(key string) error { return c.st.Set(key, c.value, 0, 0) }

// exactLRU is strict LRU over a fixed item count.
type exactLRU struct {
	capacity int
	order    *list.List // of keys, most recently used first
	items    map[string]*list.Element
}

func newExactLRU(capacity int) *exactLRU {
	return &exactLRU{capacity: capacity, order: list.New(), items: make(map[string]*list.Element, capacity)}
}

func (l *exactLRU) lookup(key string) bool {
	e, ok := l.items[key]
	if ok {
		l.order.MoveToFront(e)
	}
	return ok
}

func (l *exactLRU) fill(key string) error {
	if l.order.Len() >= l.capacity {
		delete(l.items, l.order.Remove(l.order.Back()).(string))
	}
	l.items[key] = l.order.PushFront(key)
	return nil
}

// runFillOnMiss drives a fill-on-miss cache loop and returns the
// steady-state hit rate (misses during the warm half are discarded).
func runFillOnMiss(c fillOnMissCache, keys int, skew float64, requests int) (float64, error) {
	gen, err := workload.NewGenerator(workload.MixConfig{
		GetFraction: 1.0,
		Keys:        keys,
		ZipfSkew:    skew,
		Seed:        17,
	})
	if err != nil {
		return 0, err
	}
	var hits, total int
	warm := requests / 2
	for i := 0; i < requests; i++ {
		key := gen.Next().Key
		ok := c.lookup(key)
		if !ok {
			// Fill from the backing store.
			if err := c.fill(key); err != nil {
				return 0, err
			}
		}
		if i >= warm {
			total++
			if ok {
				hits++
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("experiments: no measured requests")
	}
	return float64(hits) / float64(total), nil
}
