package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"kv3d/internal/kvclient"
	"kv3d/internal/protocol"
)

// client is the surface a worker drives; both kvclient types satisfy it.
type client interface {
	Get(key string) (kvclient.Item, error)
	GetMulti(keys []string) (map[string]kvclient.Item, error)
	Set(key string, value []byte, flags uint32, exptime int64) error
	Close() error
}

func newClient(s *spec, conn net.Conn) client {
	if s.binary {
		return kvclient.NewBinaryClient(conn)
	}
	return kvclient.NewClient(conn)
}

func dialClient(s *spec, addr string) (client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(s, conn), nil
}

// tally counts what one worker's calls did, by key.
type tally struct {
	calls, keys        int64
	hits, misses, sets int64
	// failed counts keys whose call returned a transport or server error
	// or was refused; mismatched counts values that failed checkValue.
	failed, mismatched int64
	// valueBytes is value bytes returned by hits plus value bytes stored.
	valueBytes int64
}

func (t tally) minus(o tally) tally {
	return tally{
		t.calls - o.calls, t.keys - o.keys,
		t.hits - o.hits, t.misses - o.misses, t.sets - o.sets,
		t.failed - o.failed, t.mismatched - o.mismatched,
		t.valueBytes - o.valueBytes,
	}
}

func (t *tally) add(o tally) {
	t.calls += o.calls
	t.keys += o.keys
	t.hits += o.hits
	t.misses += o.misses
	t.sets += o.sets
	t.failed += o.failed
	t.mismatched += o.mismatched
	t.valueBytes += o.valueBytes
}

// worker drives one connection through its stream, one call at a time:
// a closed loop, as memcached callers each wait for their reply.
type worker struct {
	d  *data
	c  client
	st *stream
	// pos is the next call; a stream that runs out starts again.
	pos, wraps int
	// fullCheck compares whole values, not only their headers.
	fullCheck bool
	// scratch holds the pattern, so a set only rewrites the header.
	scratch   []byte
	burstKeys []string
	tally
}

func newWorker(d *data, st *stream, c client) *worker {
	w := &worker{d: d, c: c, st: st, fullCheck: true, burstKeys: make([]string, d.spec.burst)}
	if st.sizes != nil {
		w.scratch = slices.Clone(d.pattern)
	}
	return w
}

// next returns the ranks of the next call and, for a set, its value
// length (0 for gets), and advances the stream.
func (w *worker) next() (ranks []int32, setLen int32) {
	burst := w.d.spec.burst
	if (w.pos+1)*burst > len(w.st.ranks) {
		w.pos = 0
		w.wraps++
	}
	ranks = w.st.ranks[w.pos*burst : (w.pos+1)*burst]
	if w.st.sizes != nil {
		setLen = w.st.sizes[w.pos]
	}
	w.pos++
	return ranks, setLen
}

// call makes the next client call and checks what came back.
func (w *worker) call() {
	ranks, setLen := w.next()
	n := int64(len(ranks))
	w.calls++
	w.keys += n
	switch {
	case setLen > 0:
		err := w.c.Set(w.d.keys[ranks[0]], fillValue(w.scratch, ranks[0], setLen), 0, 0)
		if err != nil {
			w.failed++
			return
		}
		w.sets++
		w.valueBytes += int64(setLen)
	case len(ranks) == 1:
		it, err := w.c.Get(w.d.keys[ranks[0]])
		switch {
		case errors.Is(err, kvclient.ErrNotFound):
			w.misses++
		case err != nil:
			w.failed++
		default:
			w.hit(it.Value, ranks[0])
		}
	default:
		for i, r := range ranks {
			w.burstKeys[i] = w.d.keys[r]
		}
		items, err := w.c.GetMulti(w.burstKeys)
		if err != nil {
			w.failed += n
			return
		}
		for i, r := range ranks {
			if it, ok := items[w.burstKeys[i]]; ok {
				w.hit(it.Value, r)
			} else {
				w.misses++
			}
		}
	}
}

func (w *worker) hit(v []byte, rank int32) {
	w.hits++
	w.valueBytes += int64(len(v))
	if !w.d.checkValue(v, rank, w.fullCheck) {
		w.mismatched++
	}
}

// window is one timed phase cut into equal slices, with the per-call
// latencies of every worker.
type window struct {
	sliceDur time.Duration
	keys     []int64 // per slice, all workers
	bytes    []int64
	lat      [][]uint32 // per slice: ns per call, sorted
	dropped  int        // samples beyond the preallocated room
	total    tally      // of this phase only
}

// allLat returns every latency of the window, sorted.
func (w *window) allLat() []uint32 {
	all := slices.Concat(w.lat...)
	slices.Sort(all)
	return all
}

// latSample is one call's latency and the slice it ended in.
type latSample struct {
	ns    uint32
	slice uint8
}

// sliceCount is one worker's share of a slice.
type sliceCount struct{ keys, bytes int64 }

// runPhase drives every worker for d. With nSlices > 0 it records the
// window, with room for latRoom latencies per worker; the warm-up passes
// 0 and records nothing.
func runPhase(workers []*worker, d time.Duration, nSlices, latRoom int) *window {
	sliceDur := d / time.Duration(max(nSlices, 1))
	counts := make([][]sliceCount, len(workers))
	lats := make([][]latSample, len(workers))
	before := make([]tally, len(workers))
	for i, w := range workers {
		counts[i] = make([]sliceCount, nSlices)
		lats[i] = make([]latSample, 0, latRoom)
		before[i] = w.tally
	}
	dropped := make([]int, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			t0 := time.Now()
			for t0.Sub(start) < d {
				keys, bytes := w.keys, w.valueBytes
				w.call()
				t1 := time.Now()
				if nSlices > 0 {
					// A call that ends after the window closes belongs to
					// the last slice, where it began.
					s := min(int(t1.Sub(start)/sliceDur), nSlices-1)
					if len(lats[i]) < cap(lats[i]) {
						lats[i] = append(lats[i], latSample{uint32(min(t1.Sub(t0), math.MaxUint32)), uint8(s)})
					} else {
						dropped[i]++
					}
					counts[i][s].keys += w.keys - keys
					counts[i][s].bytes += w.valueBytes - bytes
				}
				t0 = t1
			}
		}(i, w)
	}
	wg.Wait()
	win := &window{
		sliceDur: sliceDur,
		keys:     make([]int64, nSlices), bytes: make([]int64, nSlices),
		lat: make([][]uint32, nSlices),
	}
	for i, w := range workers {
		for s, c := range counts[i] {
			win.keys[s] += c.keys
			win.bytes[s] += c.bytes
		}
		for _, l := range lats[i] {
			win.lat[l.slice] = append(win.lat[l.slice], l.ns)
		}
		win.dropped += dropped[i]
		win.total.add(w.tally.minus(before[i]))
	}
	for _, l := range win.lat {
		slices.Sort(l)
	}
	return win
}

// rank is the nearest-rank position (from 1) of the p-th percentile of n
// samples. The small subtraction keeps 99.9 % of 1000 at 999, which
// floating point would otherwise round up to 1000.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-6)), 1)
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []uint32, p float64) uint32 {
	return sorted[rank(p, len(sorted))-1]
}

// highestPercentile picks, from the usual ladder, the highest percentile
// that still has at least ten samples beyond it: anything higher would
// rest on fewer than ten observations.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99, 99.999} {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the spread of this benchmark's own results is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// preload stores every key over conns connections, coldest rank first so
// that a store smaller than the data ends up holding the hottest keys.
// It pipelines quiet binary sets behind a noop, memcached's bulk-load
// idiom: one Set per round trip would make set-up several times longer
// than the measurement. (A quiet set also leaves get_hits alone, which
// the binary session's plain set does not: it reads the key back.)
func preload(addr string, d *data, conns int) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = preloadShare(addr, d, c, conns)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// preloadBatch is the sets between two noops. A quiet set answers only
// when it fails, so even a batch that fails whole answers with less than
// the socket buffers hold while it is still being sent.
const preloadBatch = 512

func preloadShare(addr string, d *data, share, shares int) (err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, conn.Close()) }()
	w := bufio.NewWriterSize(conn, 256<<10)
	r := bufio.NewReaderSize(conn, 4<<10)
	buf := slices.Clone(d.pattern)
	var set [24 + 8]byte // frame header and the set's extras (flags, exptime), both zero
	set[0], set[1], set[4] = protocol.MagicRequest, protocol.OpSetQ, 8
	noop := [24]byte{protocol.MagicRequest, protocol.OpNoop}
	// sync sends the noop and reads up to its answer; any answer before
	// it is a set that failed.
	sync := func() error {
		w.Write(noop[:])
		if err := w.Flush(); err != nil {
			return err
		}
		var resp [24]byte
		if _, err := io.ReadFull(r, resp[:]); err != nil {
			return err
		}
		if resp[0] != protocol.MagicResponse || resp[1] != protocol.OpNoop {
			msg, _ := r.Peek(int(binary.BigEndian.Uint32(resp[8:])))
			return fmt.Errorf("set refused with status 0x%04x %s", binary.BigEndian.Uint16(resp[6:]), msg)
		}
		return nil
	}
	sent := 0
	for rank := len(d.keys) - 1 - share; rank >= 0; rank -= shares {
		key, val := d.keys[rank], fillValue(buf, int32(rank), d.preload[rank])
		binary.BigEndian.PutUint16(set[2:], uint16(len(key)))
		binary.BigEndian.PutUint32(set[8:], uint32(8+len(key)+len(val)))
		w.Write(set[:])
		w.WriteString(key)
		w.Write(val)
		if sent++; sent%preloadBatch == 0 {
			if err := sync(); err != nil {
				return err
			}
		}
	}
	return sync()
}
