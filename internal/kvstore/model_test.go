package kvstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"slices"
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
	// casSeq counts the ids each shard has issued: the n-th store to a
	// key of shard s (from 0) gets id n·shards + s + 1. The model knows
	// the store's placement for this alone.
	casSeq  []uint64
	maxItem int
	stats   Stats // the event counters; gauges are derived in snapshot
}

// refHeader is the per-item overhead the model charges. It is written
// out rather than taken from the store so that the store's claim — a
// header of at most 22 bytes, all of it in the chunk — is checked, not
// assumed.
const refHeader = 22

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
	cas := nextCAS(m.casSeq, key)
	m.events++
	m.items[key] = &refItem{
		value: append([]byte(nil), value...), flags: flags, cas: cas,
		expireAt: expireAt, order: m.events,
	}
	m.stats.Sets++
	m.stats.TotalItems++
	return opResult{cas: cas}
}

// nextCAS is the id a store of key would get if seq were the shards'
// counts, which it advances.
func nextCAS(seq []uint64, key string) uint64 {
	shards := uint64(len(seq))
	s := fnv1a64([]byte(key)) >> 48 & (shards - 1)
	seq[s]++
	return (seq[s]-1)*shards + s + 1
}

// maxCAS bounds the ids issued so far.
func (m *refStore) maxCAS() uint64 {
	return (slices.Max(m.casSeq) + 1) * uint64(len(m.casSeq))
}

func (m *refStore) put(verb Verb, key string, value []byte, flags uint32, exptime int64, cas uint64) opResult {
	expireAt := m.abs(exptime)
	if err := m.guard(verb, key, cas); err != nil {
		return opResult{err: err}
	}
	if verb == VerbCAS {
		m.stats.CasHits++
	}
	return m.store(key, value, flags, expireAt)
}

// guard is the condition of add, replace and cas, with a cas that
// fails counted.
func (m *refStore) guard(verb Verb, key string, cas uint64) error {
	switch verb {
	case VerbAdd:
		if m.live(key) != nil {
			return ErrNotStored
		}
	case VerbReplace:
		if m.live(key) == nil {
			return ErrNotStored
		}
	case VerbCAS:
		it := m.live(key)
		if it == nil {
			m.stats.CasMisses++
			return ErrNotFound
		}
		if it.cas != cas {
			m.stats.CasBadval++
			return ErrExists
		}
	}
	return nil
}

// reserve is the answer to reserving a store of value: what put would
// refuse with before storing, counted as put counts it, and nothing
// more. A store it lets through is put when it is committed.
func (m *refStore) reserve(verb Verb, key string, value []byte, cas uint64) opResult {
	if err := m.guard(verb, key, cas); err != nil {
		return opResult{err: err}
	}
	var err error
	switch {
	case !refValidKey(key):
		err = ErrBadKey
	case refFootprint(key, value) > m.maxItem:
		err = ErrTooLarge
	}
	if err != nil && verb == VerbCAS {
		m.stats.CasHits++
	}
	return opResult{err: err}
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
	// batch is a "batch" op's puts, stored by one PutBatch call.
	batch []modelOp
}

func (o modelOp) String() string {
	if o.kind == "batch" {
		return fmt.Sprintf("batch of %d puts", len(o.batch))
	}
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
		op.cas = uint64(g.rng.Intn(int(g.model.maxCAS()) + 2))
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

// put draws ops until one is a put, and returns it.
func (g *modelGen) put(step int) modelOp {
	for {
		if op := g.next(step); op.kind == "put" {
			return op
		}
	}
}

// batchOf makes put op the first of a batch of one to eight puts. The
// others are drawn like it; half of them repeat the key of an earlier
// put of the batch, and a cas among those names, half the time, the id
// the model would give that earlier put if every put before it were
// stored — so a cas can pass or fail on a store earlier in its batch.
func (g *modelGen) batchOf(op modelOp, step int, rng *rand.Rand) []modelOp {
	seq := slices.Clone(g.model.casSeq)
	batch, ids := []modelOp{op}, []uint64{nextCAS(seq, op.key)}
	for n := rng.Intn(8); n > 0; n-- {
		p := g.put(step)
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(batch))
			p.key = batch[i].key
			if p.verb == VerbCAS && rng.Intn(2) == 0 {
				p.cas = ids[i]
			}
		}
		batch, ids = append(batch, p), append(ids, nextCAS(seq, p.key))
	}
	return batch
}

// absent reports whether res, the store's answer to op, says the key
// was not there.
func absent(op modelOp, res opResult) bool {
	switch op.kind {
	case "get", "peek":
		return !res.found
	case "put", "reserve":
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
	shards int // 1 is the global lock
	tight  bool
	pins   bool // interleave pinning GetBatchInto calls and Unpin with the generated ops
	// reserves makes half the puts Reserve calls, each committed or
	// cancelled some steps later, other ops in between.
	reserves bool
}

func (c modelCase) String() string {
	mem := "ample"
	if c.tight {
		mem = "tight"
	}
	locking := "striped"
	if c.shards == 1 {
		locking = "global"
	}
	// The "bags/" prefix is the policy the cases were first recorded
	// under; the names stay so that a case keeps its identity.
	name := fmt.Sprintf("bags/%s/%s", locking, mem)
	if c.pins {
		name += "/pins"
	}
	if c.reserves {
		name += "/reserves"
	}
	return name
}

func (c modelCase) config(clock fakeClock) Config {
	cfg := DefaultConfig(64 << 20)
	cfg.Shards, cfg.Clock = c.shards, clock
	cfg.MaxItemSize = 8 << 10
	if c.tight {
		cfg.SlabPageSize = 16 << 10
		cfg.MemoryLimit = 16 * int64(cfg.SlabPageSize)
		if c.shards > 1 {
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
	model := &refStore{now: 10_000_000, items: map[string]*refItem{}, maxItem: 8 << 10, casSeq: make([]uint64, c.shards)}
	clk := newFakeClock(model.now)
	st, err := New(c.config(clk))
	if err != nil {
		t.Fatal(err)
	}
	gen := &modelGen{rng: rand.New(rand.NewSource(seed)), keys: 48, tight: c.tight, model: model}
	if c.tight {
		gen.keys = 600
	}
	sum := fnv.New64a()
	// Pins draw from their own source, so a case with pins runs the
	// same generated ops as the case without them.
	pinRng := rand.New(rand.NewSource(seed + 1_000_003))
	var held []heldPin
	// Reservations likewise, and batches.
	resRng := rand.New(rand.NewSource(seed + 2_000_003))
	var pending []pendingStore
	batchRng := rand.New(rand.NewSource(seed + 3_000_003))
	for step := 0; step < steps; step++ {
		if c.pins {
			held = pinStep(t, c, seed, step, st, model, pinRng, gen.keys, held)
			fmt.Fprintf(sum, "%d|", len(held))
			if step%499 == 0 {
				checkAllShards(t, c, seed, step, st)
			}
		}
		if c.reserves {
			pending = reserveStep(t, c, seed, step, st, model, resRng, pending, sum)
			if step%499 == 0 {
				checkAllShards(t, c, seed, step, st)
			}
		}
		op := gen.next(step)
		if c.reserves && op.kind == "put" && resRng.Intn(2) == 0 {
			op.kind = "reserve"
		}
		if op.kind == "put" && batchRng.Intn(4) == 0 {
			op.kind, op.batch = "batch", gen.batchOf(op, step, batchRng)
		}
		var got, want opResult
		switch op.kind {
		case "tick":
			model.now += int64(op.delta)
			clk.set(model.now)
			continue
		case "flush":
			st.FlushAll(op.exptime)
			model.flushAll(op.exptime)
			continue
		case "sweep":
			got.count, _ = st.SweepExpired()
		case "get":
			values, out := batchInto(st, op.key)
			got.found, got.value, got.flags, got.cas = out[0].Found, values[0], out[0].Flags, out[0].CAS
		case "peek":
			got = st.peek(op.key)
		case "put":
			got.cas, got.err = st.Put(op.verb, op.key, op.value, op.flags, op.exptime, op.cas)
		case "batch":
			// Checked put by put inside; got and want stay zero here.
			batchStep(t, c, seed, step, st, model, op.batch, len(held)+len(pending) > 0, sum)
		case "reserve":
			r, v, err := st.Reserve(op.verb, []byte(op.key), len(op.value), op.cas)
			if got.err = err; err == nil {
				if len(v) != len(op.value) {
					t.Fatalf("%v seed %d step %d: %v reserved %d bytes", c, seed, step, op, len(v))
				}
				copy(v, op.value)
				pending = append(pending, pendingStore{op: op, r: r})
			}
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
		if len(held)+len(pending) > 0 && got.err == ErrOutOfMemory && op.kind != "reserve" {
			// Every chunk eviction could free is pinned: the store
			// refused the write, and had already dropped the old item.
			delete(model.items, op.key)
			fmt.Fprintf(sum, "%v|", got)
			continue
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
		case "reserve":
			if want = model.reserve(op.verb, op.key, op.value, op.cas); want.err == nil && got.err == ErrOutOfMemory {
				// Every chunk eviction could free is pinned; a
				// reservation drops no old item, so the model is as it was.
				want = got
			}
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
			if have, want := modelView(st.Stats()), model.snapshot(); !reflect.DeepEqual(have, want) {
				t.Fatalf("%v seed %d step %d: counters differ after %v\n store %+v\n model %+v", c, seed, step, op, have, want)
			}
		}
	}
	for _, p := range pending {
		st.Cancel(p.r)
	}
	checkAllShards(t, c, seed, steps, st)
	if len(held) > 0 {
		for _, p := range held {
			st.Unpin(p.pin)
		}
		checkAllShards(t, c, seed, steps, st)
		if !c.tight {
			if have, want := modelView(st.Stats()), model.snapshot(); !reflect.DeepEqual(have, want) {
				t.Fatalf("%v seed %d: counters differ after the last unpin\n store %+v\n model %+v", c, seed, have, want)
			}
		}
	}
	final = st.Stats()
	fmt.Fprintf(sum, "%+v", modelView(final))
	return sum.Sum64(), final
}

// modelView blanks the fields of a Stats the model has no opinion on.
func modelView(s Stats) Stats {
	s.SlabBytes, s.Shards, s.UptimeSeconds, s.Classes = 0, 0, 0, nil
	return s
}

func TestModelAgreesWithStore(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tight := range []bool{false, true} {
			c := modelCase{shards: shards, tight: tight}
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

// heldPin is a value the model test holds pinned: the view GetBatchInto
// returned and a copy of it taken at pin time.
type heldPin struct {
	pin            Pin
	view, snapshot []byte
}

// pinStep checks that every held value still reads as it did when it
// was pinned, then reads one to four keys in one GetBatchInto call (a
// get of each, as far as the model is concerned) or lets go of one pin.
// The batch's pinFrom is 0 (every hit pinned), 500 or 250: values under
// it are copied while the batch's copies stay under it, and pinned past
// that, so 250 fills part-way on two of the ample cases' values.
func pinStep(t *testing.T, c modelCase, seed int64, step int, st *Store, model *refStore, rng *rand.Rand, keys int, held []heldPin) []heldPin {
	t.Helper()
	for _, p := range held {
		if !bytes.Equal(p.view, p.snapshot) {
			t.Fatalf("%v seed %d step %d: a pinned value changed under its pin", c, seed, step)
		}
	}
	switch r := rng.Intn(8); {
	case r < 2 && len(held) < 4:
		bkeys := make([][]byte, 1+rng.Intn(4))
		for i := range bkeys {
			bkeys[i] = fmt.Appendf(nil, "key-%d", rng.Intn(keys))
		}
		pinFrom := [...]int{0, 0, 500, 250}[rng.Intn(4)]
		var scr BatchScratch
		dst, out := st.GetBatchInto(nil, bkeys, nil, &scr, pinFrom)
		if len(dst) != 0 && len(dst) >= pinFrom {
			t.Fatalf("%v seed %d step %d: batch copied %d bytes under a pinFrom of %d", c, seed, step, len(dst), pinFrom)
		}
		for i, r := range out {
			key, v := string(bkeys[i]), dst[r.Start:r.End]
			if r.Pin != (Pin{}) {
				v = r.Pinned
			}
			got := opResult{found: r.Found, value: v, flags: r.Flags, cas: r.CAS}
			if c.tight && model.present(key) && !r.Found {
				delete(model.items, key) // evicted
			}
			if want := model.get(key); !got.equal(want) {
				t.Fatalf("%v seed %d step %d: pin %q\n store %v\n model %v", c, seed, step, key, got, want)
			}
			// r.Start is what the batch had copied when it reached
			// this key, so the room left under pinFrom was the rest.
			if pinned := r.Pin != (Pin{}); pinned != (r.Found && len(v) >= pinFrom-r.Start) {
				t.Fatalf("%v seed %d step %d: pin %q of %d bytes from %d after %d copied: pinned %v", c, seed, step, key, len(v), pinFrom, r.Start, pinned)
			}
			if r.Pin != (Pin{}) {
				held = append(held, heldPin{pin: r.Pin, view: v, snapshot: append([]byte(nil), v...)})
			}
		}
	case r < 4 && len(held) > 0:
		i := rng.Intn(len(held))
		st.Unpin(held[i].pin)
		held = append(held[:i], held[i+1:]...)
	}
	return held
}

// batchStep stores a batch of puts with one PutBatch call. Each put
// must then answer as the model's put does, the model taking the batch
// in order, with a tight store's evictions and, while pinned chunks
// may leave eviction nothing to free, its refusals forgiven as in
// runModel.
func batchStep(t *testing.T, c modelCase, seed int64, step int, st *Store, model *refStore, batch []modelOp, pinned bool, sum io.Writer) {
	t.Helper()
	puts := make([]BatchPut, len(batch))
	for i, op := range batch {
		puts[i] = BatchPut{Verb: op.verb, Key: []byte(op.key), Value: op.value, Flags: op.flags, Exptime: op.exptime, CAS: op.cas}
	}
	var scr BatchScratch
	st.PutBatch(puts, &scr)
	for i, op := range batch {
		got := opResult{cas: puts[i].NewCAS, err: puts[i].Err}
		if c.tight && model.present(op.key) && absent(op, got) {
			delete(model.items, op.key) // evicted
		}
		if pinned && got.err == ErrOutOfMemory {
			delete(model.items, op.key)
		} else if want := model.put(op.verb, op.key, op.value, op.flags, op.exptime, op.cas); !got.equal(want) {
			t.Fatalf("%v seed %d step %d: put %d of %d in a batch: %v\n store %v\n model %v", c, seed, step, i, len(batch), op, got, want)
		}
		fmt.Fprintf(sum, "%v|", got)
	}
}

// pendingStore is a reservation the model test has yet to commit or
// cancel, with the put it stands for.
type pendingStore struct {
	op modelOp
	r  Reservation
}

// reserveStep ends one pending reservation, now and then: most are
// committed — the store must answer as the model's put does at this
// point, guard included — and the rest cancelled, which the model does
// not see. Either way the reservation is let go of.
func reserveStep(t *testing.T, c modelCase, seed int64, step int, st *Store, model *refStore, rng *rand.Rand, pending []pendingStore, sum io.Writer) []pendingStore {
	t.Helper()
	if len(pending) == 0 || rng.Intn(4) != 0 {
		return pending
	}
	i := rng.Intn(len(pending))
	p := pending[i]
	pending = append(pending[:i], pending[i+1:]...)
	if rng.Intn(4) == 0 {
		st.Cancel(p.r)
		fmt.Fprintf(sum, "cancel|")
		return pending
	}
	var got opResult
	got.cas, got.err = st.Commit(p.r, p.op.flags, p.op.exptime)
	st.Cancel(p.r)
	if c.tight && model.present(p.op.key) && absent(p.op, got) {
		delete(model.items, p.op.key) // evicted
	}
	want := model.put(p.op.verb, p.op.key, p.op.value, p.op.flags, p.op.exptime, p.op.cas)
	if !got.equal(want) {
		t.Fatalf("%v seed %d step %d: commit of %v\n store %v\n model %v", c, seed, step, p.op, got, want)
	}
	fmt.Fprintf(sum, "commit %v|", got)
	return pending
}

func checkAllShards(t *testing.T, c modelCase, seed int64, step int, st *Store) {
	t.Helper()
	for i, ls := range st.shards {
		if err := checkShardInvariants(ls.s); err != nil {
			t.Fatalf("%v seed %d: shard %d after %d steps: %v", c, seed, i, step, err)
		}
	}
}

// TestModelWithReservations runs the generated sequences with half the
// puts made as Reserve, a value written into the chunk, and a Commit or
// Cancel some steps later: a reservation refused must be refused as the
// put would be, having changed nothing the model can see, and a commit
// must answer as the put would at that point, after whatever came in
// between.
func TestModelWithReservations(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tight := range []bool{false, true} {
			c := modelCase{shards: shards, tight: tight, reserves: true}
			t.Run(c.String(), func(t *testing.T) {
				steps := 4000
				if tight {
					steps = 12000
				}
				for seed := int64(1); seed <= 4; seed++ {
					digest, _ := runModel(t, c, seed, steps)
					if seed == 1 {
						if again, _ := runModel(t, c, seed, steps); again != digest {
							t.Fatalf("%v seed %d: two runs gave different results (digests %x, %x)", c, seed, digest, again)
						}
					}
				}
			})
		}
	}
}

func TestModelWithPins(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tight := range []bool{false, true} {
			c := modelCase{shards: shards, tight: tight, pins: true}
			t.Run(c.String(), func(t *testing.T) {
				steps := 4000
				if tight {
					steps = 12000
				}
				var reassigns uint64
				for seed := int64(1); seed <= 4; seed++ {
					digest, final := runModel(t, c, seed, steps)
					reassigns += final.SlabReassigns
					if seed == 1 {
						if again, _ := runModel(t, c, seed, steps); again != digest {
							t.Fatalf("%v seed %d: two runs gave different results (digests %x, %x)", c, seed, digest, again)
						}
					}
				}
				if tight && reassigns == 0 {
					t.Fatalf("%v: no page reassignments over all seeds; the tight limit is meant to force them", c)
				}
			})
		}
	}
}

// --- structural invariants --------------------------------------------------

// checkShardInvariants verifies, on a quiescent shard, that the table
// and the allocator describe the same set of items, that every CLOCK
// hand is in bounds, and that
// the only other chunks in use are unlinked ones a pin still holds.
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
		if c.unlinked() {
			tableErr = fmt.Errorf("handle %#x is in the table but marked unlinked", h)
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

	// Every CLOCK hand on a chunk of its class; 0 for a class with no page.
	for i := range a.classes {
		cl := &a.classes[i]
		if n := len(cl.pages) * (a.pageSize / cl.chunkSize); cl.hand < 0 || cl.hand >= max(n, 1) {
			return fmt.Errorf("class %d: hand at chunk %d of %d", i, cl.hand, n)
		}
	}

	// Used + free chunks = chunks carved, class by class and page by page.
	pages, allocated, unlinked := 0, 0, 0
	for i := range a.classes {
		cl := &a.classes[i]
		carved := len(cl.pages) * (a.pageSize / cl.chunkSize)
		if cl.allocated+cl.freeCount != carved {
			return fmt.Errorf("class %d: %d used + %d free chunks, %d carved", i, cl.allocated, cl.freeCount, carved)
		}
		free := 0
		for h := cl.free; h != 0; h = a.chunk(h).freeNext() {
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
			live, pins, stray := 0, 0, handle(0)
			a.forEachInUse(page, func(h handle) {
				live++
				c := a.chunk(h)
				pins += int(c[offRef]&pinMask) / pinOne
				if inTable[h] {
					return
				}
				if !c.unlinked() || !c.pinned() {
					stray = h
				}
				unlinked++
			})
			if stray != 0 {
				return fmt.Errorf("class %d: chunk %#x is in use but neither in the table nor unlinked and pinned", i, stray)
			}
			if live != int(a.pageLive[page]) {
				return fmt.Errorf("page %d: %d chunks in use, live count says %d", page, live, a.pageLive[page])
			}
			if pins != int(a.pagePins[page]) {
				return fmt.Errorf("page %d: its chunks hold %d pins, the page count says %d", page, pins, a.pagePins[page])
			}
		}
		pages += len(cl.pages)
		allocated += cl.allocated
	}
	if pages != int(a.numPages) {
		return fmt.Errorf("classes own %d pages, %d were allocated", pages, a.numPages)
	}
	if allocated != len(inTable)+unlinked {
		return fmt.Errorf("%d chunks handed out, %d items in the table and %d unlinked", allocated, len(inTable), unlinked)
	}
	return nil
}
