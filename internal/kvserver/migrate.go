package kvserver

// Background key-range migration: when membership changes move a key
// range to another node (a join taking over ranges, or this node
// preparing a graceful leave), a MigrationStream walks the local store
// and pushes the moving keys to the new owner over the plain binary
// protocol — chunked, rate-limited, resumable, and tied to a stop
// signal, so a shutdown mid-handoff interrupts cleanly and a successor
// stream can resume from the reported cursor.
//
// Values are re-read at send time (the listing is only a snapshot of
// *keys*), so a key mutated after the stream started moves with its
// current value, and a key deleted meanwhile is simply skipped. The
// receiver applies chunks with Add semantics (see migframe.go), so
// migration never clobbers a value written to the target after
// ownership moved: between the two, the newest write wins.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
)

// ErrMigrationStopped reports a stream interrupted by Close before it
// finished; Cursor() says where a successor should resume.
var ErrMigrationStopped = errors.New("kvserver: migration stopped")

// StreamOptions describe one key-range handoff.
type StreamOptions struct {
	// Target is the receiving node's serving address.
	Target string
	// Owned selects the keys to move (nil moves every key) — typically
	// "the new membership places this key on Target".
	Owned func(key string) bool
	// ChunkKeys is the number of keys per pipelined chunk (default 64).
	ChunkKeys int
	// RateKeysPerSec caps the streaming rate (0 = unlimited): the
	// background handoff must not starve foreground traffic.
	RateKeysPerSec int
	// StartAt resumes a prior stream: that many keys of the (sorted,
	// deterministic) listing are skipped before streaming begins.
	StartAt int
}

// MigOptions configure a Migrator.
type MigOptions struct {
	// Store is the local store keys are read from; its clock paces
	// RateKeysPerSec.
	Store *kvstore.Store
	// Dial opens the transport to a target (default: 5s TCP dial).
	Dial func(addr string) (net.Conn, error)
	// OpTimeout bounds each chunk write and barrier read (default 5s).
	OpTimeout time.Duration
}

// Migrator runs migration streams and owns their lifecycle: Close
// closes done, which every stream polls between chunks, and waits on wg,
// which counts the stream goroutines Start launched.
type Migrator struct {
	opts MigOptions

	mu     sync.Mutex
	closed bool // guarded by mu

	done chan struct{}
	wg   sync.WaitGroup

	// live.migrate.* counters.
	keysSent     atomic.Uint64
	keysSkipped  atomic.Uint64 // target already had a newer value
	keysMissing  atomic.Uint64 // deleted between listing and send
	chunks       atomic.Uint64
	sendErrors   atomic.Uint64
	completed    atomic.Uint64
	interrupted  atomic.Uint64
	resumed      atomic.Uint64
	activeStream atomic.Int64
}

// NewMigrator builds a migrator over the local store.
func NewMigrator(opts MigOptions) (*Migrator, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("kvserver: migrator needs a store")
	}
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = 5 * time.Second
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return &Migrator{opts: opts, done: make(chan struct{})}, nil
}

// MigrationStream is one in-flight handoff.
type MigrationStream struct {
	opts StreamOptions
	m    *Migrator

	// cursor counts keys disposed of (sent, skipped, or found missing)
	// since the start of the listing, including the StartAt skip — the
	// resume point for a successor stream.
	cursor atomic.Int64

	doneOnce sync.Once
	done     chan struct{} // closed to stop this stream alone
	finished chan struct{} // closed when the goroutine exits
	err      error         // write-once before finished closes
	total    int
}

// Cursor reports how many keys of the listing have been disposed of —
// pass it as StartAt to resume after an interruption.
func (st *MigrationStream) Cursor() int { return int(st.cursor.Load()) }

// Total reports the listing size (keys to move), fixed at start.
func (st *MigrationStream) Total() int { return st.total }

// Done is closed when the stream has finished (successfully or not).
func (st *MigrationStream) Done() <-chan struct{} { return st.finished }

// Err reports the stream outcome once Done is closed: nil on
// completion, ErrMigrationStopped on interruption, or a transport
// error.
func (st *MigrationStream) Err() error {
	<-st.finished
	return st.err
}

// Stop interrupts this stream without touching its siblings and waits
// for its goroutine to exit.
func (st *MigrationStream) Stop() {
	st.doneOnce.Do(func() { close(st.done) })
	<-st.finished
}

// Wait blocks until the stream finishes on its own (or is stopped).
func (st *MigrationStream) Wait() error { return st.Err() }

// Start lists the keys to move and launches the stream goroutine.
func (m *Migrator) Start(opts StreamOptions) (*MigrationStream, error) {
	if opts.Target == "" {
		return nil, fmt.Errorf("kvserver: migration stream needs a target")
	}
	if opts.ChunkKeys <= 0 {
		opts.ChunkKeys = 64
	}
	// Deterministic listing: sorted, so StartAt cursors mean the same
	// thing across a stop/resume pair as long as the keyspace has not
	// churned out from under them (new keys land on re-listing; the
	// re-read at send time handles mutations either way).
	keys := m.opts.Store.AppendKeys(nil)
	sort.Strings(keys)
	if opts.Owned != nil {
		kept := keys[:0]
		for _, k := range keys {
			if opts.Owned(k) {
				kept = append(kept, k)
			}
		}
		keys = kept
	}
	st := &MigrationStream{
		opts:     opts,
		m:        m,
		done:     make(chan struct{}),
		finished: make(chan struct{}),
		total:    len(keys),
	}
	if opts.StartAt > 0 {
		if opts.StartAt > len(keys) {
			opts.StartAt = len(keys)
			st.opts.StartAt = len(keys)
		}
		st.cursor.Store(int64(opts.StartAt))
		m.resumed.Add(1)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("kvserver: migrator closed")
	}
	m.wg.Add(1)
	m.mu.Unlock()
	m.activeStream.Add(1)
	go st.run(keys[opts.StartAt:])
	return st, nil
}

// Close interrupts every stream and joins their goroutines. Streams
// that already completed are unaffected; interrupted ones report
// ErrMigrationStopped.
func (m *Migrator) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	m.wg.Wait()
	return nil
}

// run streams the listed keys; it owns the connection and always
// closes it on the way out.
func (st *MigrationStream) run(keys []string) {
	m := st.m
	defer m.wg.Done()
	defer m.activeStream.Add(-1)
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close() // stream teardown; the handoff link's close error carries no signal
		}
		close(st.finished)
	}()

	var chunkBuf []byte
	entries := make([]MigEntry, 0, st.opts.ChunkKeys)
	var barrier uint32
	for len(keys) > 0 {
		select {
		case <-st.done:
			m.interrupted.Add(1)
			st.err = ErrMigrationStopped
			return
		case <-m.done:
			m.interrupted.Add(1)
			st.err = ErrMigrationStopped
			return
		default:
		}
		n := st.opts.ChunkKeys
		if n > len(keys) {
			n = len(keys)
		}
		batch := keys[:n]
		keys = keys[n:]

		// Re-read at send time: the listing is a key snapshot, values
		// move at their current state, deleted keys are dropped.
		entries = entries[:0]
		for _, k := range batch {
			e, exp, ok := m.opts.Store.GetWithExpiry(k)
			if !ok {
				m.keysMissing.Add(1)
				continue
			}
			entries = append(entries, MigEntry{
				Key: k, Value: e.Value, Flags: e.Flags, Exptime: exp,
			})
		}
		if len(entries) > 0 {
			if conn == nil {
				c, err := m.opts.Dial(st.opts.Target)
				if err != nil {
					m.sendErrors.Add(1)
					st.err = err
					return
				}
				conn = c
			}
			barrier++
			chunkBuf = AppendChunk(chunkBuf[:0], entries, barrier)
			if err := st.sendChunk(conn, chunkBuf, barrier, len(entries)); err != nil {
				m.sendErrors.Add(1)
				st.err = err
				return
			}
			m.chunks.Add(1)
		}
		st.cursor.Add(int64(n))

		// Rate limit, interruptibly: the sleep budget for this chunk is
		// keys/rate; a stop signal cuts it short.
		if st.opts.RateKeysPerSec > 0 {
			delay := time.Duration(n) * time.Second / time.Duration(st.opts.RateKeysPerSec)
			timer, stop := m.opts.Store.Clock().After(delay)
			select {
			case <-timer:
			case <-st.done:
				stop()
				m.interrupted.Add(1)
				st.err = ErrMigrationStopped
				return
			case <-m.done:
				stop()
				m.interrupted.Add(1)
				st.err = ErrMigrationStopped
				return
			}
		}
	}
	m.completed.Add(1)
}

// sendChunk writes one chunk and reads responses up to its barrier.
// Quiet adds respond only on failure; StatusKeyExists means the target
// already holds a newer value (benign — Add semantics working as
// intended), anything else counts as a send error but does not abort
// the chunk.
func (st *MigrationStream) sendChunk(conn net.Conn, chunk []byte, barrier uint32, sent int) error {
	m := st.m
	if err := conn.SetWriteDeadline(clock.Deadline(m.opts.OpTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(chunk); err != nil {
		return err
	}
	exists, failed := 0, 0
	for {
		if err := conn.SetReadDeadline(clock.Deadline(m.opts.OpTimeout)); err != nil {
			return err
		}
		var hdr [migHeaderLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return err
		}
		if hdr[0] != protocol.MagicResponse {
			return fmt.Errorf("kvserver: migration response magic %#02x", hdr[0])
		}
		bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
		if bodyLen < 0 || bodyLen > maxMigValue {
			return fmt.Errorf("kvserver: migration response body %d out of range", bodyLen)
		}
		if bodyLen > 0 {
			if _, err := io.CopyN(io.Discard, conn, int64(bodyLen)); err != nil {
				return err
			}
		}
		opcode := hdr[1]
		status := binary.BigEndian.Uint16(hdr[6:])
		opaque := binary.BigEndian.Uint32(hdr[12:])
		if opcode == protocol.OpNoop {
			if opaque != barrier {
				return fmt.Errorf("kvserver: migration barrier opaque %d, want %d (stream desynchronized)", opaque, barrier)
			}
			m.keysSent.Add(uint64(sent - exists - failed))
			m.keysSkipped.Add(uint64(exists))
			if failed > 0 {
				m.sendErrors.Add(uint64(failed))
			}
			return nil
		}
		// An error response for one quiet add within the chunk. The
		// target reports an already-present key as NotStored (add
		// semantics); KeyExists covers receivers that answer in stock
		// memcached dialect. Both mean "the target has a newer value" —
		// benign, counted as a skip.
		if status == protocol.StatusKeyExists || status == protocol.StatusNotStored {
			exists++
		} else {
			failed++
		}
	}
}

// Probes exports the live.migrate.* counters.
func (m *Migrator) Probes() []obs.Probe {
	return []obs.Probe{
		{Name: "live.migrate.keys_sent", Value: float64(m.keysSent.Load())},
		{Name: "live.migrate.keys_skipped_exists", Value: float64(m.keysSkipped.Load())},
		{Name: "live.migrate.keys_missing", Value: float64(m.keysMissing.Load())},
		{Name: "live.migrate.chunks", Value: float64(m.chunks.Load())},
		{Name: "live.migrate.send_errors", Value: float64(m.sendErrors.Load())},
		{Name: "live.migrate.streams_completed", Value: float64(m.completed.Load())},
		{Name: "live.migrate.streams_interrupted", Value: float64(m.interrupted.Load())},
		{Name: "live.migrate.streams_resumed", Value: float64(m.resumed.Load())},
		{Name: "live.migrate.streams_active", Value: float64(m.activeStream.Load())},
	}
}
