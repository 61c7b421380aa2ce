package kvstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

// The reference model: memcached's semantics written the obvious way —
// a map, absolute expiry times, one counter per stat — with none of the
// store's machinery (no slabs, no classes, no lists, no lazy tricks
// beyond the one memcached itself documents: a dead item is reaped, and
// counted as expired, when something next looks at it). The store must
// agree with it on every observable result of seeded random op
// sequences.

type refItem struct {
	value    []byte
	flags    uint32
	cas      uint64
	expireAt int64  // absolute unix seconds; 0 never, negative already expired
	order    uint64 // when it was stored, on the model's event counter
}

// flush_all in the model is an event in the order of events: every
// store and every flush that takes effect draws the next number from
// one counter, and an item is flushed when a flush drew a later number
// than the item's last store. An immediate flush takes effect when it
// is called. A delayed one waits in flushDue and takes effect at the
// first operation at or after its time, before that operation does
// anything else; a newer delayed flush replaces a waiting one.
type refStore struct {
	now       int64
	items     map[string]*refItem
	events    uint64
	lastFlush uint64 // the number the latest effective flush drew
	flushDue  int64  // when the waiting delayed flush is due; 0 none
	casSeq    uint64
	maxItem   int
	stats     Stats // the event counters; gauges are derived in snapshot
}

// refHeader is the per-item overhead the model charges. It is written
// out rather than taken from the store so that the store's claim — a
// header of at most 36 bytes, all of it in the chunk — is checked, not
// assumed.
const refHeader = 36

func refFootprint(key string, value []byte) int { return refHeader + len(key) + len(value) }

func refValidKey(key string) bool {
	if len(key) == 0 || len(key) > 250 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

func (m *refStore) abs(exptime int64) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return -1
	case exptime <= 60*60*24*30:
		exptime += m.now
	}
	// Dates are kept to the last second 32 bits can tell from the
	// already-expired mark: 2106-02-07 06:28:14 UTC.
	return min(exptime, 1<<32-2)
}

// applyDueFlush lets a waiting delayed flush take effect once its time
// has come.
func (m *refStore) applyDueFlush() {
	if m.flushDue != 0 && m.now >= m.flushDue {
		m.flushDue = 0
		m.events++
		m.lastFlush = m.events
	}
}

func (m *refStore) dead(it *refItem) bool {
	m.applyDueFlush()
	if it.expireAt < 0 || (it.expireAt != 0 && m.now >= it.expireAt) {
		return true
	}
	return it.order < m.lastFlush
}

// present reports whether key would be found, without reaping.
func (m *refStore) present(key string) bool {
	it := m.items[key]
	return it != nil && !m.dead(it)
}

// live is a lookup as every verb but set performs it.
func (m *refStore) live(key string) *refItem {
	it := m.items[key]
	if it == nil {
		return nil
	}
	if m.dead(it) {
		delete(m.items, key)
		m.stats.Expired++
		return nil
	}
	return it
}

// opResult is everything one operation lets a caller observe.
type opResult struct {
	err      error
	found    bool
	value    []byte
	flags    uint32
	cas      uint64
	num      uint64
	expireAt int64
	count    uint64
}

func (r opResult) equal(o opResult) bool {
	return r.err == o.err && r.found == o.found && bytes.Equal(r.value, o.value) &&
		r.flags == o.flags && r.cas == o.cas && r.num == o.num && r.expireAt == o.expireAt && r.count == o.count
}

func (r opResult) String() string {
	return fmt.Sprintf("{err=%v found=%v value=%q flags=%d cas=%d num=%d expireAt=%d count=%d}",
		r.err, r.found, r.value, r.flags, r.cas, r.num, r.expireAt, r.count)
}

func (m *refStore) get(key string) opResult {
	it := m.live(key)
	if it == nil {
		m.stats.GetMisses++
		return opResult{}
	}
	m.stats.GetHits++
	return opResult{found: true, value: it.value, flags: it.flags, cas: it.cas}
}

func (m *refStore) peek(key string) opResult {
	it := m.live(key)
	if it == nil {
		return opResult{}
	}
	return opResult{found: true, value: it.value, flags: it.flags, cas: it.cas, expireAt: it.expireAt}
}

// store is the unconditional write every storing verb ends in.
func (m *refStore) store(key string, value []byte, flags uint32, expireAt int64) opResult {
	if !refValidKey(key) {
		return opResult{err: ErrBadKey}
	}
	if refFootprint(key, value) > m.maxItem {
		return opResult{err: ErrTooLarge}
	}
	m.applyDueFlush()
	m.casSeq++
	m.events++
	m.items[key] = &refItem{
		value: append([]byte(nil), value...), flags: flags, cas: m.casSeq,
		expireAt: expireAt, order: m.events,
	}
	m.stats.Sets++
	m.stats.TotalItems++
	return opResult{cas: m.casSeq}
}

func (m *refStore) put(verb Verb, key string, value []byte, flags uint32, exptime int64, cas uint64) opResult {
	expireAt := m.abs(exptime)
	switch verb {
	case VerbAdd:
		if m.live(key) != nil {
			return opResult{err: ErrNotStored}
		}
	case VerbReplace:
		if m.live(key) == nil {
			return opResult{err: ErrNotStored}
		}
	case VerbCAS:
		it := m.live(key)
		if it == nil {
			m.stats.CasMisses++
			return opResult{err: ErrNotFound}
		}
		if it.cas != cas {
			m.stats.CasBadval++
			return opResult{err: ErrExists}
		}
		m.stats.CasHits++
	}
	return m.store(key, value, flags, expireAt)
}

func (m *refStore) concat(key string, extra []byte, front bool) opResult {
	it := m.live(key)
	if it == nil {
		return opResult{err: ErrNotStored}
	}
	joined := append(append([]byte(nil), it.value...), extra...)
	if front {
		joined = append(append([]byte(nil), extra...), it.value...)
	}
	return opResult{err: m.store(key, joined, it.flags, it.expireAt).err}
}

func (m *refStore) incrDecr(key string, delta uint64, incr bool) opResult {
	it := m.live(key)
	if it == nil {
		if incr {
			m.stats.IncrMisses++
		} else {
			m.stats.DecrMisses++
		}
		return opResult{err: ErrNotFound}
	}
	cur, err := strconv.ParseUint(string(it.value), 10, 64)
	if err != nil {
		return opResult{err: ErrNotNumeric}
	}
	next := cur + delta
	if incr {
		m.stats.IncrHits++
	} else {
		m.stats.DecrHits++
		if next = cur - delta; delta > cur {
			next = 0
		}
	}
	res := m.store(key, []byte(strconv.FormatUint(next, 10)), it.flags, it.expireAt)
	if res.err != nil {
		return opResult{err: res.err}
	}
	return opResult{num: next, cas: res.cas}
}

func (m *refStore) delete(key string) opResult {
	if m.live(key) == nil {
		m.stats.DeleteMisses++
		return opResult{err: ErrNotFound}
	}
	delete(m.items, key)
	m.stats.DeleteHits++
	return opResult{}
}

func (m *refStore) touch(key string, exptime int64) opResult {
	expireAt := m.abs(exptime)
	it := m.live(key)
	if it == nil {
		m.stats.TouchMisses++
		return opResult{err: ErrNotFound}
	}
	it.expireAt = expireAt
	m.stats.TouchHits++
	return opResult{}
}

func (m *refStore) flushAll(delay int64) {
	m.applyDueFlush()
	if delay > 0 {
		m.flushDue = m.now + delay
		return
	}
	m.events++
	m.lastFlush = m.events
}

func (m *refStore) sweep() opResult {
	var reaped uint64
	for key, it := range m.items {
		if m.dead(it) {
			delete(m.items, key)
			reaped++
		}
	}
	m.stats.Expired += reaped
	return opResult{count: reaped}
}

// snapshot returns the counters with the gauges filled in.
func (m *refStore) snapshot() Stats {
	s := m.stats
	s.CurrItems = uint64(len(m.items))
	for key, it := range m.items {
		s.BytesUsed += int64(refFootprint(key, it.value))
	}
	return s
}

// --- the driver -------------------------------------------------------------

type modelOp struct {
	kind    string
	key     string
	value   []byte
	flags   uint32
	exptime int64
	cas     uint64
	delta   uint64
	verb    Verb
	front   bool
	incr    bool
}

func (o modelOp) String() string {
	return fmt.Sprintf("%s key=%q value=%dB flags=%d exptime=%d cas=%d delta=%d verb=%d", o.kind, o.key, len(o.value), o.flags, o.exptime, o.cas, o.delta, o.verb)
}

// modelGen draws operations. Everything random comes from rng, so a
// seed names one sequence.
type modelGen struct {
	rng   *rand.Rand
	keys  int
	tight bool
	model *refStore
}

func (g *modelGen) key() string {
	switch g.rng.Intn(60) {
	case 0:
		return ""
	case 1:
		return "has space"
	case 2:
		return string(bytes.Repeat([]byte{'k'}, 251))
	}
	return fmt.Sprintf("key-%d", g.rng.Intn(g.keys))
}

func (g *modelGen) value(step int) []byte {
	if g.rng.Intn(3) == 0 {
		return []byte(strconv.FormatUint(uint64(g.rng.Intn(1000)), 10))
	}
	n := g.rng.Intn(200)
	if g.tight {
		// A few size bands whose mix drifts with time, so slab classes
		// fill, starve and have to take pages from one another.
		bands := [...]int{20, 150, 600, 1500, 3500}
		n = bands[(g.rng.Intn(3)+step/1500)%len(bands)] + g.rng.Intn(40)
	} else if g.rng.Intn(40) == 0 {
		n = 9000 // over the item size limit
	}
	v := make([]byte, n)
	g.rng.Read(v)
	return v
}

func (g *modelGen) exptime() int64 {
	now := g.model.now
	switch g.rng.Intn(12) {
	case 0, 1:
		return int64(1 + g.rng.Intn(20))
	case 2:
		return -1
	case 3:
		return now + int64(1+g.rng.Intn(30)) // absolute, ahead
	case 4:
		return now - int64(g.rng.Intn(5)) // absolute, now or behind
	case 5:
		return 60 * 60 * 24 * 30 // the largest relative value
	case 6:
		return 60*60*24*30 + 1 // the smallest absolute one: long past
	}
	return 0
}

func (g *modelGen) next(step int) modelOp {
	op := modelOp{key: g.key(), flags: g.rng.Uint32()}
	switch n := g.rng.Intn(100); {
	case n < 28:
		op.kind = "get"
	case n < 31:
		op.kind = "peek"
	case n < 50:
		op.kind, op.verb, op.value, op.exptime = "put", VerbSet, g.value(step), g.exptime()
	case n < 55:
		op.kind, op.verb, op.value, op.exptime = "put", VerbAdd, g.value(step), g.exptime()
	case n < 60:
		op.kind, op.verb, op.value, op.exptime = "put", VerbReplace, g.value(step), g.exptime()
	case n < 66:
		op.kind, op.verb, op.value, op.exptime = "put", VerbCAS, g.value(step), g.exptime()
		op.cas = uint64(g.rng.Intn(int(g.model.casSeq) + 2))
		if it := g.model.items[op.key]; it != nil && g.rng.Intn(2) == 0 {
			op.cas = it.cas
		}
	case n < 73:
		op.kind, op.front, op.value = "concat", g.rng.Intn(2) == 0, g.value(step)
		if n := g.rng.Intn(8); !g.tight && len(op.value) > n {
			op.value = op.value[:n]
		}
	case n < 81:
		op.kind, op.incr, op.delta = "incrdecr", g.rng.Intn(2) == 0, uint64(g.rng.Intn(50))
		if g.rng.Intn(20) == 0 {
			op.delta = ^uint64(0) - 5 // wraps an increment, floors a decrement
		}
	case n < 85:
		op.kind, op.exptime = "touch", g.exptime()
	case n < 91:
		op.kind = "delete"
	case n < 98:
		op.kind, op.delta = "tick", uint64(g.rng.Intn(4))
		if g.rng.Intn(25) == 0 {
			op.delta = 40
		}
	case n < 99:
		op.kind = "sweep"
	default:
		op.kind = "tick"
		if g.rng.Intn(4) == 0 {
			op.kind, op.exptime = "flush", int64([...]int{0, 0, 2, 10}[g.rng.Intn(4)])
		}
	}
	return op
}

// absent reports whether res, the store's answer to op, says the key
// was not there.
func absent(op modelOp, res opResult) bool {
	switch op.kind {
	case "get", "peek":
		return !res.found
	case "put":
		switch op.verb {
		case VerbAdd:
			return res.err == nil
		case VerbReplace:
			return res.err == ErrNotStored
		case VerbCAS:
			return res.err == ErrNotFound
		}
		return false
	case "concat":
		return res.err == ErrNotStored
	case "incrdecr", "delete", "touch":
		return res.err == ErrNotFound
	}
	return false
}

type modelCase struct {
	policy EvictionPolicy
	mode   ConcurrencyMode
	tight  bool
}

func (c modelCase) String() string {
	mem := "ample"
	if c.tight {
		mem = "tight"
	}
	return fmt.Sprintf("%v/%v/%s", c.policy, c.mode, mem)
}

func (c modelCase) config(clock Clock) Config {
	cfg := DefaultConfig(64 << 20)
	cfg.Policy, cfg.Mode, cfg.Shards, cfg.Clock = c.policy, c.mode, 4, clock
	cfg.MaxItemSize = 8 << 10
	if c.tight {
		cfg.SlabPageSize = 16 << 10
		cfg.MemoryLimit = 16 * int64(cfg.SlabPageSize)
		if c.mode == ModeStriped {
			cfg.MemoryLimit *= 2 // 8 pages for each of the 4 shards
		}
	}
	return cfg
}

// runModel drives one seeded sequence through the store and the model
// and returns a digest of every result plus the store's final counters.
// With ample memory the two must agree on everything. With a tight
// limit the store may evict: the model is told to forget a key when the
// store's answer says it is gone, and everything else — above all what a
// hit returns — must still agree.
func runModel(t *testing.T, c modelCase, seed int64, steps int) (digest uint64, final Stats) {
	t.Helper()
	model := &refStore{now: 10_000_000, items: map[string]*refItem{}, maxItem: 8 << 10}
	st, err := New(c.config(func() int64 { return model.now }))
	if err != nil {
		t.Fatal(err)
	}
	gen := &modelGen{rng: rand.New(rand.NewSource(seed)), keys: 48, tight: c.tight, model: model}
	if c.tight {
		gen.keys = 600
	}
	sum := fnv.New64a()
	for step := 0; step < steps; step++ {
		op := gen.next(step)
		var got, want opResult
		switch op.kind {
		case "tick":
			model.now += int64(op.delta)
			continue
		case "flush":
			st.FlushAll(op.exptime)
			model.flushAll(op.exptime)
			continue
		case "sweep":
			got.count, _ = st.SweepExpired()
		case "get":
			var e Entry
			e, got.found = st.Get(op.key)
			got.value, got.flags, got.cas = e.Value, e.Flags, e.CAS
		case "peek":
			var e Entry
			e, got.expireAt, got.found = st.GetWithExpiry(op.key)
			got.value, got.flags, got.cas = e.Value, e.Flags, e.CAS
		case "put":
			got.cas, got.err = st.Put(op.verb, op.key, op.value, op.flags, op.exptime, op.cas)
		case "concat":
			if op.front {
				got.err = st.Prepend(op.key, op.value)
			} else {
				got.err = st.Append(op.key, op.value)
			}
		case "incrdecr":
			got.num, got.cas, got.err = st.IncrDecr(op.key, op.delta, op.incr)
		case "delete":
			got.err = st.Delete(op.key)
		case "touch":
			got.err = st.Touch(op.key, op.exptime)
		}

		if c.tight && model.present(op.key) && absent(op, got) {
			delete(model.items, op.key) // evicted
		}
		switch op.kind {
		case "sweep":
			want = model.sweep()
		case "get":
			want = model.get(op.key)
		case "peek":
			want = model.peek(op.key)
		case "put":
			want = model.put(op.verb, op.key, op.value, op.flags, op.exptime, op.cas)
		case "concat":
			want = model.concat(op.key, op.value, op.front)
		case "incrdecr":
			want = model.incrDecr(op.key, op.delta, op.incr)
		case "delete":
			want = model.delete(op.key)
		case "touch":
			want = model.touch(op.key, op.exptime)
		}
		if c.tight && op.kind == "sweep" {
			want.count = got.count // how many dead items were evicted first is the store's business
		}
		if !got.equal(want) {
			t.Fatalf("%v seed %d step %d: %v\n store %v\n model %v", c, seed, step, op, got, want)
		}
		fmt.Fprintf(sum, "%v|", got)

		if !c.tight && (step%97 == 0 || step == steps-1) {
			if have, want := modelView(st.Stats()), model.snapshot(); have != want {
				t.Fatalf("%v seed %d step %d: counters differ after %v\n store %+v\n model %+v", c, seed, step, op, have, want)
			}
		}
	}
	for i, ls := range st.shards {
		if err := checkShardInvariants(ls.s); err != nil {
			t.Fatalf("%v seed %d: shard %d after %d steps: %v", c, seed, i, steps, err)
		}
	}
	final = st.Stats()
	fmt.Fprintf(sum, "%+v", modelView(final))
	return sum.Sum64(), final
}

// modelView blanks the fields of a Stats the model has no opinion on.
func modelView(s Stats) Stats {
	s.SlabBytes, s.Shards, s.UptimeSeconds = 0, 0, 0
	return s
}

func TestModelAgreesWithStore(t *testing.T) {
	for _, policy := range []EvictionPolicy{PolicyLRU, PolicyBags} {
		for _, mode := range []ConcurrencyMode{ModeGlobal, ModeStriped} {
			for _, tight := range []bool{false, true} {
				c := modelCase{policy: policy, mode: mode, tight: tight}
				t.Run(c.String(), func(t *testing.T) {
					steps := 4000
					if tight {
						steps = 12000
					}
					var evictions, reassigns uint64
					for seed := int64(1); seed <= 4; seed++ {
						digest, final := runModel(t, c, seed, steps)
						evictions += final.Evictions
						reassigns += final.SlabReassigns
						if seed == 1 {
							if again, _ := runModel(t, c, seed, steps); again != digest {
								t.Fatalf("%v seed %d: two runs gave different results (digests %x, %x)", c, seed, digest, again)
							}
						}
					}
					if tight && (evictions == 0 || reassigns == 0) {
						t.Fatalf("%v: %d evictions and %d page reassignments over all seeds; the tight limit is meant to force both", c, evictions, reassigns)
					}
					if !tight && evictions != 0 {
						t.Fatalf("%v: %d evictions with ample memory", c, evictions)
					}
				})
			}
		}
	}
}

// --- structural invariants --------------------------------------------------

// checkShardInvariants verifies, on a quiescent shard, that the table,
// the policy's lists and the allocator describe the same set of items.
func checkShardInvariants(s *shard) error {
	a := s.alloc
	// Every item in the table, once; their footprints are BytesUsed.
	inTable := map[handle]bool{}
	var bytesUsed int64
	var tableErr error
	s.table.forEach(func(h handle, c chunk) {
		if inTable[h] {
			tableErr = fmt.Errorf("handle %#x is in the table twice", h)
		}
		if !c.inUse() {
			tableErr = fmt.Errorf("handle %#x is in the table but its chunk is marked free", h)
		}
		inTable[h] = true
		bytesUsed += int64(itemFootprint(c.keyLen(), c.valueLen()))
		if got := a.pageClass[a.pageOf(h)]; int(got) != c.class() {
			tableErr = fmt.Errorf("handle %#x says class %d but lies on a page of class %d", h, c.class(), got)
		}
		if size := itemFootprint(c.keyLen(), c.valueLen()); size > a.chunkSize(c.class()) {
			tableErr = fmt.Errorf("handle %#x holds %d bytes in a %d-byte chunk", h, size, a.chunkSize(c.class()))
		}
	})
	if tableErr != nil {
		return tableErr
	}
	if len(inTable) != s.table.len() {
		return fmt.Errorf("table counts %d items, a walk finds %d", s.table.len(), len(inTable))
	}
	if bytesUsed != s.stats.BytesUsed {
		return fmt.Errorf("BytesUsed = %d, the items' footprints sum to %d", s.stats.BytesUsed, bytesUsed)
	}

	// Every item on exactly one policy list, and nothing else on any.
	onList := map[handle]bool{}
	walk := func(l *itemList, what string, check func(chunk) error) error {
		n := 0
		var prev handle
		for h := l.head; h != 0; h = a.chunk(h).next() {
			c := a.chunk(h)
			if onList[h] {
				return fmt.Errorf("%s: handle %#x is on two lists, or twice on one", what, h)
			}
			onList[h] = true
			if !inTable[h] {
				return fmt.Errorf("%s: handle %#x is listed but not in the table", what, h)
			}
			if c.prev() != prev {
				return fmt.Errorf("%s: handle %#x has prev %#x, want %#x", what, h, c.prev(), prev)
			}
			if err := check(c); err != nil {
				return fmt.Errorf("%s: handle %#x: %v", what, h, err)
			}
			prev = h
			n++
		}
		if l.tail != prev || l.size != n {
			return fmt.Errorf("%s: tail %#x size %d, a walk ends at %#x after %d", what, l.tail, l.size, prev, n)
		}
		return nil
	}
	switch p := s.pol.(type) {
	case *lruPolicy:
		for i := range p.lists {
			err := walk(&p.lists[i], fmt.Sprintf("LRU list %d", i), func(c chunk) error {
				if c.class() != i {
					return fmt.Errorf("class %d", c.class())
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	case *bagsPolicy:
		linked := 0
		for i, ch := range p.chains {
			var prev uint16
			for b := ch.oldest; b != 0; b = p.bags[b].next {
				bg := &p.bags[b]
				if bg.prev != prev {
					return fmt.Errorf("class %d bag %d has prev %d, want %d", i, b, bg.prev, prev)
				}
				if bg.size == 0 && b != ch.newest {
					return fmt.Errorf("class %d bag %d is empty but still chained", i, b)
				}
				err := walk(&bg.itemList, fmt.Sprintf("class %d bag %d", i, b), func(c chunk) error {
					if c.class() != i || c.bag() != b {
						return fmt.Errorf("class %d bag %d", c.class(), c.bag())
					}
					return nil
				})
				if err != nil {
					return err
				}
				prev = b
				linked++
			}
			if ch.newest != prev {
				return fmt.Errorf("class %d chain ends at bag %d, newest is %d", i, prev, ch.newest)
			}
		}
		free := 0
		for b := p.free; b != 0; b = p.bags[b].next {
			free++
		}
		if linked+free != len(p.bags)-1 {
			return fmt.Errorf("%d bags chained + %d free, table has %d slots", linked, free, len(p.bags)-1)
		}
	}
	if len(onList) != len(inTable) {
		return fmt.Errorf("%d items in the table, %d on the policy's lists", len(inTable), len(onList))
	}

	// Used + free chunks = chunks carved, class by class and page by page.
	pages, allocated := 0, 0
	for i := range a.classes {
		cl := &a.classes[i]
		carved := len(cl.pages) * (a.pageSize / cl.chunkSize)
		if cl.allocated+cl.freeCount != carved {
			return fmt.Errorf("class %d: %d used + %d free chunks, %d carved", i, cl.allocated, cl.freeCount, carved)
		}
		free := 0
		for h := cl.free; h != 0; h = a.chunk(h).hnext() {
			if a.chunk(h).inUse() || inTable[h] {
				return fmt.Errorf("class %d: chunk %#x is on the free list and in use", i, h)
			}
			if int(a.pageClass[a.pageOf(h)]) != i {
				return fmt.Errorf("class %d: free chunk %#x lies on a page of class %d", i, h, a.pageClass[a.pageOf(h)])
			}
			if free++; free > cl.freeCount-cl.fresh {
				return fmt.Errorf("class %d: free list longer than its count %d", i, cl.freeCount)
			}
		}
		if free+cl.fresh != cl.freeCount {
			return fmt.Errorf("class %d: %d chunks on the free list + %d fresh, count says %d", i, free, cl.fresh, cl.freeCount)
		}
		for k := 0; k < cl.fresh; k++ {
			if h := a.handleAt(cl.freshPage, k*cl.chunkSize); a.chunk(h).inUse() {
				return fmt.Errorf("class %d: chunk %#x is fresh and in use", i, h)
			}
		}
		for _, page := range cl.pages {
			live, stray := 0, handle(0)
			a.forEachInUse(page, func(h handle) {
				live++
				if !inTable[h] {
					stray = h
				}
			})
			if stray != 0 {
				return fmt.Errorf("class %d: chunk %#x is in use but not in the table", i, stray)
			}
			if live != int(a.pageLive[page]) {
				return fmt.Errorf("page %d: %d chunks in use, live count says %d", page, live, a.pageLive[page])
			}
		}
		pages += len(cl.pages)
		allocated += cl.allocated
	}
	if pages != int(a.numPages) {
		return fmt.Errorf("classes own %d pages, %d were allocated", pages, a.numPages)
	}
	if allocated != len(inTable) {
		return fmt.Errorf("%d chunks handed out, %d items in the table", allocated, len(inTable))
	}
	return nil
}
