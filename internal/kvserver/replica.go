package kvserver

// Replica write fan-out: the server-side half of the cluster layer.
// Every successful local mutation arrives here from the protocol
// sessions (see protocol.Replicator) and is propagated to the key's
// replica set, looked up on the cluster ring. The member set is fixed at
// start: kv3d-server builds the ring once from self and -peers.
//
// Two consistency modes, chosen per op by the client (binary vbucket
// flag) or by the server default:
//
//   - async: the op acknowledges after the local store; replica frames
//     are queued to per-peer workers and sent in the background. A full
//     queue drops the frame (counted live.repl.async.dropped) — bounded
//     staleness, never unbounded memory.
//   - quorum: the op acknowledges only after ceil((R+1)/2) members of
//     the key's R-sized replica set (the local store counts when this
//     node is an owner) applied the write, or fails with a no-quorum
//     error after QuorumTimeout.
//
// Replica frames are tagged protocol.ReplLocal, so a receiving server
// applies them locally and never re-replicates: fan-out cannot loop.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/cluster"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
	"kv3d/internal/sim"
)

// ErrNoQuorum reports a quorum write that could not gather majority
// acknowledgement before QuorumTimeout. The local store stands; the op
// is unacknowledged and safe to retry.
var ErrNoQuorum = errors.New("kvserver: no quorum")

// ReplConn is the per-peer connection a worker replicates over —
// typically a thin adapter over kvclient.BinaryClient (kvserver cannot
// import kvclient itself), replaced by fakes in tests. Implementations
// should treat DeleteWithMode of an absent key as success: the
// replica never had it, so the delete's goal holds.
type ReplConn interface {
	SetWithMode(key string, value []byte, flags uint32, exptime int64, mode protocol.ReplMode) error
	DeleteWithMode(key string, mode protocol.ReplMode) error
	// TouchWithMode propagates a TTL update; an absent key on the
	// replica is success for the same reason as with deletes.
	TouchWithMode(key string, exptime int64, mode protocol.ReplMode) error
	// FlushWithMode propagates a flush_all with its delay.
	FlushWithMode(delay int64, mode protocol.ReplMode) error
	Close() error
}

// ReplOptions configure a Replicator.
type ReplOptions struct {
	// Self is this node's name on the ring (its serving address); it is
	// skipped during fan-out and counts as one quorum vote when it owns
	// the key.
	Self string
	// Ring resolves each key's replica set. It must not change after
	// NewReplicator: the member list a flush fans out to is read once.
	Ring *cluster.Ring
	// Replicas is the replica-set size R (minimum 1; 1 means no
	// remote copies and quorum writes succeed locally).
	Replicas int
	// DefaultMode resolves protocol.ReplDefault: the mode for clients
	// that did not choose one. ReplDefault/ReplLocal here mean async
	// (the server always has *some* propagation once a Replicator is
	// installed).
	DefaultMode protocol.ReplMode
	// QueueDepth bounds each peer's job queue (default 256).
	QueueDepth int
	// QuorumTimeout bounds how long a quorum write waits for acks
	// (default 2s).
	QuorumTimeout time.Duration
	// Dial opens a connection to a peer (required — usually an adapter
	// over kvclient.DialBinaryOptions; see cmd/kv3d-server).
	Dial func(addr string) (ReplConn, error)
	// Flight, when set, records replication lifecycle instants.
	Flight *obs.FlightRecorder[sim.Ns]
	// Clock stamps the flight instants and runs the quorum and Drain
	// timeouts (default clock.Wall); a server passes its store's.
	Clock clock.Clock
}

func (o ReplOptions) withDefaults() ReplOptions {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.QuorumTimeout <= 0 {
		o.QuorumTimeout = 2 * time.Second
	}
	if o.DefaultMode != protocol.ReplQuorum && o.DefaultMode != protocol.ReplAsync {
		o.DefaultMode = protocol.ReplAsync
	}
	if o.Clock == nil {
		o.Clock = clock.Wall
	}
	return o
}

// replKind selects the replica-side operation of one job.
type replKind uint8

const (
	_ replKind = iota // a set: the zero kind
	replDelete
	replTouch
	replFlush // exptime carries the flush delay; key is empty
)

// replJob is one queued replica mutation. value is owned by the job
// (copied out of the session's frame buffer before enqueue).
type replJob struct {
	key     string
	value   []byte
	flags   uint32
	exptime int64
	kind    replKind
	// ack, when non-nil, receives the send outcome (quorum writes);
	// buffered so a worker never blocks on a departed waiter.
	ack chan error
}

// peer is one remote member's replication lane: a bounded queue drained
// by a dedicated worker goroutine owning one lazily-dialed connection.
type peer struct {
	addr string
	q    chan replJob
}

// Replicator fans successful local writes out to replica peers. It
// implements protocol.Replicator and is safe for concurrent use by all
// connection goroutines.
type Replicator struct {
	opts ReplOptions
	// remotes is every member but Self, sorted: a flush's fan-out.
	remotes []string

	mu     sync.Mutex
	peers  map[string]*peer // guarded by mu
	closed bool             // guarded by mu

	done chan struct{}
	wg   sync.WaitGroup
	// unsent counts the jobs handed to peer workers and not yet sent;
	// settled is signalled each time it falls, for a test's Drain.
	unsent  atomic.Int64
	settled chan struct{}

	// live.repl.* counters, exported through Probes.
	asyncQueued  atomic.Uint64
	asyncSent    atomic.Uint64
	asyncErrors  atomic.Uint64
	asyncDropped atomic.Uint64
	quorumOK     atomic.Uint64
	quorumFailed atomic.Uint64
	quorumAcks   atomic.Uint64

	flightTrack obs.TrackID
}

// NewReplicator builds a replicator over the given ring.
func NewReplicator(opts ReplOptions) (*Replicator, error) {
	if opts.Ring == nil {
		return nil, fmt.Errorf("kvserver: replicator needs a ring")
	}
	if opts.Dial == nil {
		return nil, fmt.Errorf("kvserver: replicator needs a dialer")
	}
	opts = opts.withDefaults()
	var remotes []string
	for _, n := range opts.Ring.Nodes() {
		if n != opts.Self {
			remotes = append(remotes, n)
		}
	}
	sort.Strings(remotes)
	r := &Replicator{
		opts:    opts,
		remotes: remotes,
		peers:   make(map[string]*peer),
		done:    make(chan struct{}),
		settled: make(chan struct{}, 1),
	}
	if opts.Flight.Enabled() {
		r.flightTrack = opts.Flight.RegisterTrack("replication")
	}
	return r, nil
}

// quorum is the majority threshold for a replica set of size n.
func quorum(n int) int { return n/2 + 1 }

// resolve maps a wire-carried mode onto a concrete action mode.
func (r *Replicator) resolve(mode protocol.ReplMode) protocol.ReplMode {
	if mode == protocol.ReplDefault || mode == protocol.ReplLocal {
		return r.opts.DefaultMode
	}
	return mode
}

// owners returns the key's replica set and whether this node is in it.
func (r *Replicator) owners(key string) (remote []string, selfOwns bool) {
	owners, err := r.opts.Ring.LocateN(key, r.opts.Replicas)
	if err != nil {
		return nil, false // empty ring: nothing to fan out to
	}
	for _, o := range owners {
		if o == r.opts.Self {
			selfOwns = true
			continue
		}
		remote = append(remote, o)
	}
	return remote, selfOwns
}

// ReplicateSet propagates one stored value. Implements
// protocol.Replicator; value is borrowed and copied here.
func (r *Replicator) ReplicateSet(key string, value []byte, flags uint32, exptime int64, mode protocol.ReplMode) error {
	job := replJob{
		key:     key,
		value:   append([]byte(nil), value...),
		flags:   flags,
		exptime: exptime,
	}
	return r.replicate(job, mode)
}

// ReplicateDelete propagates one delete. Implements protocol.Replicator.
func (r *Replicator) ReplicateDelete(key string, mode protocol.ReplMode) error {
	return r.replicate(replJob{key: key, kind: replDelete}, mode)
}

// ReplicateTouch propagates one TTL update. Implements
// protocol.Replicator; async-mode drops are counted like sets.
func (r *Replicator) ReplicateTouch(key string, exptime int64, mode protocol.ReplMode) error {
	return r.replicate(replJob{key: key, exptime: exptime, kind: replTouch}, mode)
}

// ReplicateFlush propagates one flush_all. Implements
// protocol.Replicator. Unlike the keyed ops it fans out to every other
// member — a flush clears the whole keyspace, so every node that owns
// any of it must hear about it.
func (r *Replicator) ReplicateFlush(delay int64, mode protocol.ReplMode) error {
	job := replJob{exptime: delay, kind: replFlush}
	switch r.resolve(mode) {
	case protocol.ReplQuorum:
		// The local flush already succeeded, so self always votes.
		return r.quorumFanout(job, r.remotes, true)
	default:
		r.asyncFanout(job, r.remotes)
		return nil
	}
}

func (r *Replicator) replicate(job replJob, mode protocol.ReplMode) error {
	remote, selfOwns := r.owners(job.key)
	switch r.resolve(mode) {
	case protocol.ReplQuorum:
		return r.quorumFanout(job, remote, selfOwns)
	default:
		r.asyncFanout(job, remote)
		return nil
	}
}

// asyncFanout enqueues the job to every remote owner, dropping (and
// counting) when a peer's queue is full.
func (r *Replicator) asyncFanout(job replJob, remote []string) {
	for _, addr := range remote {
		p := r.peer(addr)
		if p == nil {
			r.asyncDropped.Add(1)
			continue
		}
		if r.enqueue(p, job) {
			r.asyncQueued.Add(1)
		} else {
			r.asyncDropped.Add(1)
		}
	}
}

// enqueue hands job to p's worker, unless p's queue is full.
func (r *Replicator) enqueue(p *peer, job replJob) bool {
	r.unsent.Add(1)
	select {
	case p.q <- job:
		return true
	default:
		r.settle()
		return false
	}
}

// settle takes one job off unsent and wakes a waiting Drain.
func (r *Replicator) settle() {
	r.unsent.Add(-1)
	select {
	case r.settled <- struct{}{}:
	default:
	}
}

// quorumFanout enqueues ack-carrying jobs and waits for majority.
func (r *Replicator) quorumFanout(job replJob, remote []string, selfOwns bool) error {
	// Majority over the full replica set: remote owners plus this node
	// when it owns the key. A key the node does not own still counts
	// only its remote owners' acks.
	setSize := len(remote)
	votes := 0
	if selfOwns {
		setSize++
		votes++ // the local store already succeeded
	}
	if setSize == 0 {
		// A single-node ring where self is the only conceivable
		// owner: the local store is the whole replica set.
		return nil
	}
	needed := quorum(setSize)
	if votes >= needed {
		return nil
	}
	ack := make(chan error, len(remote))
	job.ack = ack // job is a value not yet shared; the channel send below publishes it (happens-before)
	inflight := 0
	for _, addr := range remote {
		p := r.peer(addr)
		if p == nil {
			continue
		}
		// A full queue is an immediate failed vote, not a silent drop:
		// the client asked for acknowledged replication.
		if r.enqueue(p, job) {
			inflight++
		}
	}
	if votes+inflight < needed {
		r.quorumFailed.Add(1)
		r.flightInstant("repl.quorum.fail")
		return fmt.Errorf("%w: %d of %d acks reachable", ErrNoQuorum, votes+inflight, needed)
	}
	deadline, stop := r.opts.Clock.After(r.opts.QuorumTimeout)
	defer stop()
	for votes < needed {
		select {
		case err := <-ack:
			inflight--
			if err == nil {
				votes++
				r.quorumAcks.Add(1)
			} else if votes+inflight < needed {
				r.quorumFailed.Add(1)
				r.flightInstant("repl.quorum.fail")
				return fmt.Errorf("%w: %d of %d acks (%v)", ErrNoQuorum, votes, needed, err)
			}
		case <-deadline:
			r.quorumFailed.Add(1)
			r.flightInstant("repl.quorum.fail")
			return fmt.Errorf("%w: %d of %d acks before timeout", ErrNoQuorum, votes, needed)
		case <-r.done:
			return fmt.Errorf("%w: replicator closed", ErrNoQuorum)
		}
	}
	r.quorumOK.Add(1)
	return nil
}

// peer returns addr's lane, creating it (and its worker) on first use.
// Returns nil once the replicator is closed.
func (r *Replicator) peer(addr string) *peer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	p, ok := r.peers[addr]
	if !ok {
		p = &peer{addr: addr, q: make(chan replJob, r.opts.QueueDepth)}
		r.peers[addr] = p
		r.wg.Add(1)
		go r.worker(p)
	}
	return p
}

// worker drains one peer's queue over a lazily-dialed connection. It
// exits when the replicator closes; a send error tears the connection
// down so the next job redials (a crashed peer that revives is picked
// up without external coordination).
func (r *Replicator) worker(p *peer) {
	defer r.wg.Done()
	var conn ReplConn
	defer func() {
		if conn != nil {
			conn.Close() // worker teardown; the peer link's close error carries no signal
		}
	}()
	for {
		select {
		case <-r.done:
			return
		case job := <-p.q:
			err := r.send(&conn, p.addr, job)
			if job.ack != nil {
				job.ack <- err // buffered per fan-out; never blocks
				if err != nil {
					r.flightInstant("repl.peer.error")
				}
			} else if err != nil {
				r.asyncErrors.Add(1)
				r.flightInstant("repl.peer.error")
			} else {
				r.asyncSent.Add(1)
			}
			r.settle()
		}
	}
}

// send delivers one job, dialing when no connection is up. Replica
// frames carry ReplLocal so the receiver never re-replicates.
func (r *Replicator) send(conn *ReplConn, addr string, job replJob) error {
	if *conn == nil {
		c, err := r.opts.Dial(addr)
		if err != nil {
			return err
		}
		*conn = c
	}
	var err error
	switch job.kind {
	case replDelete:
		err = (*conn).DeleteWithMode(job.key, protocol.ReplLocal)
	case replTouch:
		err = (*conn).TouchWithMode(job.key, job.exptime, protocol.ReplLocal)
	case replFlush:
		err = (*conn).FlushWithMode(job.exptime, protocol.ReplLocal)
	default:
		err = (*conn).SetWithMode(job.key, job.value, job.flags, job.exptime, protocol.ReplLocal)
	}
	if err != nil {
		// Drop the connection so the next job redials instead of writing
		// into a possibly-dead socket. For the rare protocol-level answer
		// this costs one spurious redial; distinguishing it would need
		// the kvclient error taxonomy, which kvserver cannot import.
		(*conn).Close() // already failing; the close error of a broken peer link carries no signal
		*conn = nil
	}
	return err
}

func (r *Replicator) flightInstant(name string) {
	if r.opts.Flight.Enabled() {
		r.opts.Flight.Instant(r.flightTrack, name, r.opts.Clock.Now())
	}
}

// Close stops every peer worker and waits for them to exit. Queued
// async jobs not yet sent are dropped (counted).
func (r *Replicator) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	pending := 0
	for _, p := range r.peers {
		pending += len(p.q)
	}
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	if pending > 0 {
		r.asyncDropped.Add(uint64(pending))
	}
	return nil
}

// Probes exports the live.repl.* counters.
func (r *Replicator) Probes() []obs.Probe {
	return []obs.Probe{
		{Name: "live.repl.async.queued", Value: float64(r.asyncQueued.Load())},
		{Name: "live.repl.async.sent", Value: float64(r.asyncSent.Load())},
		{Name: "live.repl.async.errors", Value: float64(r.asyncErrors.Load())},
		{Name: "live.repl.async.dropped", Value: float64(r.asyncDropped.Load())},
		{Name: "live.repl.quorum.ok", Value: float64(r.quorumOK.Load())},
		{Name: "live.repl.quorum.failed", Value: float64(r.quorumFailed.Load())},
		{Name: "live.repl.quorum.acks", Value: float64(r.quorumAcks.Load())},
	}
}
