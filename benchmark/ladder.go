package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
)

// The ladder replays the first calls of connection 0's stream through
// each layer's public entry points, one rung after another, each on a
// fresh identically-preloaded store and a single goroutine:
//
//	e2e1 ⊃ loopback ⊃ protocol ⊃ kvstore, with kvclient beside protocol
//
// so a rung's time minus the rungs it contains is that layer's own, and
// what e2e1 adds over loopback is the process boundary, printed as the
// residual rather than hidden.

// blockOps is the target size of one timed block, in keys.
const blockOps = 1000

// rungTree names each rung and the rung its spans hang under.
var rungTree = []struct{ name, parent string }{
	{"e2e1", ""},
	{"loopback", "e2e1"},
	{"protocol", "loopback"},
	{"kvclient", "loopback"},
	{"kvstore", "protocol"},
}

// rung is one layer's replay: the time of each block and what the whole
// replay allocated.
type rung struct {
	starts []time.Duration // of each block, since the rung began
	blocks []time.Duration
	allocs uint64
}

func (r rung) total() (t time.Duration) {
	for _, b := range r.blocks {
		t += b
	}
	return t
}

// span is one block of one rung. Rungs run one after another, so the
// spans of a block are re-based onto the start of its e2e1 span: a child
// starts where its parent does (kvclient after protocol), which lets
// containment express the subtraction.
type span struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Block    int    `json:"block"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// selfNs returns, by span name, the time of the spans of that name minus
// the time of their direct children.
func selfNs(spans []span) map[string]int64 {
	name := make(map[string]string, len(spans))
	for _, s := range spans {
		name[s.ID] = s.Name
	}
	self := make(map[string]int64)
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		self[s.Name] += d
		if s.Parent != "" {
			self[name[s.Parent]] -= d
		}
	}
	return self
}

// ladder holds the rungs of one workload.
type ladder struct {
	d *data
	// calls per block and blocks replayed; ops is the keys they cover.
	perBlock, nBlocks int
	ops               int64
	rungs             map[string]rung

	// From the record pass: both byte streams of the replayed calls, the
	// offset at which each call's request and response end, and the
	// checksum every later rung's responses must reproduce.
	req, resp       []byte
	reqEnd, respEnd []int
	respSum         uint32
	reads, writes   int64 // server-side socket calls of the loopback rung
}

func newLadder(d *data) *ladder {
	perBlock := max(1, blockOps/d.spec.burst)
	nBlocks := d.spec.traceOps / d.spec.burst / perBlock
	return &ladder{
		d: d, perBlock: perBlock, nBlocks: nBlocks,
		ops:   int64(nBlocks * perBlock * d.spec.burst),
		rungs: make(map[string]rung),
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timeBlocks runs block nBlocks times and records the rung. Memory
// statistics are read outside the timed blocks.
func (l *ladder) timeBlocks(name string, block func(b int) error) error {
	r := rung{starts: make([]time.Duration, l.nBlocks), blocks: make([]time.Duration, l.nBlocks)}
	runtime.GC()
	before := mallocs()
	begin := time.Now()
	for b := range r.blocks {
		start := time.Now()
		if err := block(b); err != nil {
			return fmt.Errorf("%s rung, block %d: %w", name, b, err)
		}
		r.starts[b], r.blocks[b] = start.Sub(begin), time.Since(start)
	}
	r.allocs = mallocs() - before
	l.rungs[name] = r
	return nil
}

// drive times w making the replayed calls. The rungs check value headers
// only: a full compare costs as much as the copies being timed, and the
// response checksums already cover every byte.
func (l *ladder) drive(name string, w *worker) error {
	w.fullCheck = false
	defer func() { w.fullCheck = true }()
	bad := w.failed + w.mismatched
	return l.timeBlocks(name, func(int) error {
		for i := 0; i < l.perBlock; i++ {
			w.call()
		}
		if w.failed+w.mismatched != bad {
			return errors.New("a replayed call failed or returned a wrong value")
		}
		return nil
	})
}

// freshStore builds a store loaded as preload loads the child: every
// key, coldest rank first.
func (l *ladder) freshStore() (*kvstore.Store, error) {
	st, err := kvstore.New(kvstore.DefaultConfig(int64(l.d.spec.memoryMiB) << 20))
	if err != nil {
		return nil, err
	}
	buf := append([]byte(nil), l.d.pattern...)
	for rank := len(l.d.keys) - 1; rank >= 0; rank-- {
		if err := st.Set(l.d.keys[rank], fillValue(buf, int32(rank), l.d.preload[rank]), 0, 0); err != nil {
			return nil, fmt.Errorf("preloading key %d: %w", rank, err)
		}
	}
	return st, nil
}

// newSession is the workload's protocol session over rw.
func (l *ladder) newSession(st *kvstore.Store, rw io.ReadWriter) interface{ Serve() error } {
	if l.d.spec.binary {
		return protocol.NewBinarySession(st, rw)
	}
	return protocol.NewSession(st, rw)
}

// inProcess runs the record pass and the four in-process rungs.
func (l *ladder) inProcess() error {
	for _, step := range []func() error{l.record, l.kvstoreRung, l.protocolRung, l.kvclientRung, l.loopbackRung} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// record runs the real client against a protocol session over a pipe,
// untimed, keeping both byte streams. Values are checked in full here.
func (l *ladder) record() error {
	st, err := l.freshStore()
	if err != nil {
		return err
	}
	near, far := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- l.newSession(st, far).Serve() }()
	tee := &teeConn{Conn: near}
	w := newWorker(l.d, &l.d.streams[0], newClient(l.d.spec, tee))
	for i := 0; i < l.nBlocks*l.perBlock; i++ {
		w.call()
	}
	tee.endCall()
	err = errors.Join(near.Close(), <-served)
	if w.failed+w.mismatched > 0 {
		err = errors.Join(err, fmt.Errorf("%d calls failed, %d values wrong", w.failed, w.mismatched))
	}
	l.req, l.resp, l.reqEnd, l.respEnd = tee.req, tee.resp, tee.reqEnd, tee.respEnd
	l.respSum = crc32.Checksum(l.resp, castagnoli)
	if err != nil {
		return fmt.Errorf("record pass: %w", err)
	}
	return nil
}

// kvstoreRung makes the store calls the replayed ops come down to.
func (l *ladder) kvstoreRung() error {
	st, err := l.freshStore()
	if err != nil {
		return err
	}
	w := newWorker(l.d, &l.d.streams[0], nil)
	var dst []byte
	return l.timeBlocks("kvstore", func(int) error {
		for i := 0; i < l.perBlock; i++ {
			ranks, setLen := w.next()
			if setLen > 0 {
				if err := st.Set(l.d.keys[ranks[0]], fillValue(w.scratch, ranks[0], setLen), 0, 0); err != nil {
					return err
				}
				continue
			}
			for _, r := range ranks {
				dst, _, _ = st.GetInto(dst[:0], l.d.keys[r])
			}
		}
		return nil
	})
}

// protocolRung serves the recorded request bytes from memory into a
// checksumming sink: parse, execute and encode, with no socket. The
// reader reports EOF at each block's end, which returns Serve; the next
// block resumes the same session.
func (l *ladder) protocolRung() error {
	st, err := l.freshStore()
	if err != nil {
		return err
	}
	rw := &replayRW{data: l.req}
	sess := l.newSession(st, rw)
	err = l.timeBlocks("protocol", func(b int) error {
		rw.limit = l.reqEnd[(b+1)*l.perBlock-1]
		return sess.Serve()
	})
	if err == nil && rw.sum != l.respSum {
		err = fmt.Errorf("protocol rung: response checksum %08x, recorded %08x", rw.sum, l.respSum)
	}
	return err
}

// kvclientRung runs the real client against the recorded responses.
func (l *ladder) kvclientRung() error {
	conn := &replayConn{data: l.resp, ends: l.respEnd, answered: true}
	return l.drive("kvclient", newWorker(l.d, &l.d.streams[0], newClient(l.d.spec, conn)))
}

// loopbackRung runs the real client against an in-process server over
// loopback TCP, one closed-loop connection.
func (l *ladder) loopbackRung() (err error) {
	st, err := l.freshStore()
	if err != nil {
		return err
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ln := &countingListener{Listener: raw}
	srv := kvserver.NewWithOptions(st, nil, kvserver.Options{})
	var serving sync.WaitGroup
	var served error
	serving.Add(1)
	go func() {
		defer serving.Done()
		served = srv.ServeOn(ln)
	}()
	defer func() {
		cerr := srv.Close()
		serving.Wait()
		err = errors.Join(err, cerr, served)
	}()

	conn, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		return err
	}
	sum := &sumConn{Conn: conn}
	c := newClient(l.d.spec, sum)
	defer func() { err = errors.Join(err, c.Close()) }()
	if err := l.drive("loopback", newWorker(l.d, &l.d.streams[0], c)); err != nil {
		return err
	}
	l.reads, l.writes = ln.reads.Load(), ln.writes.Load()
	if sum.sum != l.respSum {
		return fmt.Errorf("loopback rung: response checksum %08x, recorded %08x", sum.sum, l.respSum)
	}
	return nil
}

// spans lays the rungs' blocks out as a tree per block.
func (l *ladder) spans() []span {
	var out []span
	id := func(name string, b int) string { return fmt.Sprintf("%s/%s#%d", l.d.spec.name, name, b) }
	for b := 0; b < l.nBlocks; b++ {
		base := int64(l.rungs["e2e1"].starts[b])
		for _, r := range rungTree {
			start := base
			if r.name == "kvclient" {
				start += int64(l.rungs["protocol"].blocks[b])
			}
			s := span{
				ID: id(r.name, b), Name: r.name, Workload: l.d.spec.name, Block: b,
				StartNs: start, EndNs: start + int64(l.rungs[r.name].blocks[b]),
			}
			if r.parent != "" {
				s.Parent = id(r.parent, b)
			}
			out = append(out, s)
		}
	}
	return out
}

// metrics derives the per-layer numbers of the ladder from its spans.
func (l *ladder) metrics(spans []span) map[string]float64 {
	self := selfNs(spans)
	ops := float64(l.ops)
	allocs := func(name string) float64 { return float64(l.rungs[name].allocs) }
	perOp := func(name string) float64 { return float64(l.rungs[name].total()) / ops }
	return map[string]float64{
		"kvstore.ns_per_op":          float64(self["kvstore"]) / ops,
		"kvstore.allocs_per_op":      allocs("kvstore") / ops,
		"protocol.self_ns_per_op":    float64(self["protocol"]) / ops,
		"protocol.allocs_per_op":     (allocs("protocol") - allocs("kvstore")) / ops,
		"protocol.req_bytes_per_op":  float64(len(l.req)) / ops,
		"protocol.resp_bytes_per_op": float64(len(l.resp)) / ops,
		"kvserver.self_ns_per_op":    float64(self["loopback"]) / ops,
		"kvserver.allocs_per_op":     (allocs("loopback") - allocs("protocol") - allocs("kvclient")) / ops,
		"kvserver.reads_per_op":      float64(l.reads) / ops,
		"kvserver.writes_per_op":     float64(l.writes) / ops,
		"kvclient.self_ns_per_op":    float64(self["kvclient"]) / ops,
		"kvclient.allocs_per_op":     allocs("kvclient") / ops,
		"ladder.loopback_ns_per_op":  perOp("loopback"),
		"ladder.e2e1_ns_per_op":      perOp("e2e1"),
		"ladder.residual_ns_per_op":  float64(self["e2e1"]) / ops,
		"ladder.residual_share":      float64(self["e2e1"]) / float64(l.rungs["e2e1"].total()),
	}
}

// writeTrace writes the spans where a later reader can find them.
func writeTrace(path string, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// teeConn records what the client writes and reads, and where each
// call's bytes end: a write that follows a read begins the next call.
type teeConn struct {
	net.Conn
	req, resp       []byte
	reqEnd, respEnd []int
	answered        bool
}

func (t *teeConn) endCall() {
	t.reqEnd = append(t.reqEnd, len(t.req))
	t.respEnd = append(t.respEnd, len(t.resp))
	t.answered = false
}

func (t *teeConn) Write(p []byte) (int, error) {
	if t.answered {
		t.endCall()
	}
	t.req = append(t.req, p...)
	return t.Conn.Write(p)
}

func (t *teeConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.resp = append(t.resp, p[:n]...)
	t.answered = true
	return n, err
}

// replayRW feeds a session recorded request bytes up to limit, then EOF,
// and checksums what the session writes.
type replayRW struct {
	data       []byte
	pos, limit int
	sum        uint32
}

func (r *replayRW) Read(p []byte) (int, error) {
	if r.pos >= r.limit {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:r.limit])
	r.pos += n
	return n, nil
}

func (r *replayRW) Write(p []byte) (int, error) {
	r.sum = crc32.Update(r.sum, castagnoli, p)
	return len(p), nil
}

// replayConn stands in for a server: it discards what the client writes
// and serves the recorded response bytes, releasing one call's response
// when that call's request begins, as a server would.
type replayConn struct {
	net.Conn // nil: only Read, Write and Close are reached
	data     []byte
	ends     []int
	pos      int
	call     int
	answered bool // set at the start: the first write begins call 1
}

func (r *replayConn) Write(p []byte) (int, error) {
	if r.answered {
		r.call++
		r.answered = false
	}
	return len(p), nil
}

func (r *replayConn) Read(p []byte) (int, error) {
	r.answered = true
	if r.call > len(r.ends) || r.pos >= r.ends[r.call-1] {
		return 0, io.ErrUnexpectedEOF // the client asked for more than the recording holds
	}
	n := copy(p, r.data[r.pos:r.ends[r.call-1]])
	r.pos += n
	return n, nil
}

func (r *replayConn) Close() error { return nil }

// sumConn checksums what the client reads.
type sumConn struct {
	net.Conn
	sum uint32
}

func (s *sumConn) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	s.sum = crc32.Update(s.sum, castagnoli, p[:n])
	return n, err
}

// countingListener counts the Read and Write calls of accepted
// connections; over the server's buffered session each is one syscall.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, ln: l}, nil
}

type countingConn struct {
	net.Conn
	ln *countingListener
}

func (c countingConn) Read(p []byte) (int, error) {
	c.ln.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.ln.writes.Add(1)
	return c.Conn.Write(p)
}
