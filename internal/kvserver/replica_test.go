package kvserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kv3d/internal/cluster"
	"kv3d/internal/protocol"
	"kv3d/internal/testutil"
)

// fakeReplStore records replica frames per peer, standing in for the
// remote servers behind a Replicator's dialed connections.
type fakeReplStore struct {
	mu      sync.Mutex
	values  map[string]map[string]string // peer -> key -> value
	deletes map[string][]string          // peer -> deleted keys
	touches map[string]map[string]int64  // peer -> key -> exptime
	flushes map[string][]int64           // peer -> flush delays
	fail    map[string]error             // peer -> send error
	dialErr map[string]error             // peer -> dial error
	dials   map[string]int
}

func newFakeReplStore() *fakeReplStore {
	return &fakeReplStore{
		values:  map[string]map[string]string{},
		deletes: map[string][]string{},
		touches: map[string]map[string]int64{},
		flushes: map[string][]int64{},
		fail:    map[string]error{},
		dialErr: map[string]error{},
		dials:   map[string]int{},
	}
}

func (f *fakeReplStore) dial(addr string) (ReplConn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dials[addr]++
	if err := f.dialErr[addr]; err != nil {
		return nil, err
	}
	return &fakeReplConn{store: f, addr: addr}, nil
}

func (f *fakeReplStore) get(peer, key string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.values[peer][key]
	return v, ok
}

type fakeReplConn struct {
	store *fakeReplStore
	addr  string
}

func (c *fakeReplConn) SetWithMode(key string, value []byte, flags uint32, exptime int64, mode protocol.ReplMode) error {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	if err := c.store.fail[c.addr]; err != nil {
		return err
	}
	if mode != protocol.ReplLocal {
		return fmt.Errorf("replica frame carried mode %v, want local", mode)
	}
	m := c.store.values[c.addr]
	if m == nil {
		m = map[string]string{}
		c.store.values[c.addr] = m
	}
	m[key] = string(value)
	return nil
}

func (c *fakeReplConn) DeleteWithMode(key string, mode protocol.ReplMode) error {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	if err := c.store.fail[c.addr]; err != nil {
		return err
	}
	if mode != protocol.ReplLocal {
		return fmt.Errorf("replica frame carried mode %v, want local", mode)
	}
	delete(c.store.values[c.addr], key)
	c.store.deletes[c.addr] = append(c.store.deletes[c.addr], key)
	return nil
}

func (c *fakeReplConn) TouchWithMode(key string, exptime int64, mode protocol.ReplMode) error {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	if err := c.store.fail[c.addr]; err != nil {
		return err
	}
	if mode != protocol.ReplLocal {
		return fmt.Errorf("replica frame carried mode %v, want local", mode)
	}
	m := c.store.touches[c.addr]
	if m == nil {
		m = map[string]int64{}
		c.store.touches[c.addr] = m
	}
	m[key] = exptime
	return nil
}

func (c *fakeReplConn) FlushWithMode(delay int64, mode protocol.ReplMode) error {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	if err := c.store.fail[c.addr]; err != nil {
		return err
	}
	if mode != protocol.ReplLocal {
		return fmt.Errorf("replica frame carried mode %v, want local", mode)
	}
	c.store.flushes[c.addr] = append(c.store.flushes[c.addr], delay)
	return nil
}

func (c *fakeReplConn) Close() error { return nil }

// threeNodeRing builds self + two peers.
func threeNodeRing() *cluster.Ring {
	r := cluster.NewRing(16)
	r.Add("self")
	r.Add("peer-a")
	r.Add("peer-b")
	return r
}

func newTestReplicator(t *testing.T, fake *fakeReplStore, mode protocol.ReplMode) *Replicator {
	t.Helper()
	r, err := NewReplicator(ReplOptions{
		Self:          "self",
		Ring:          threeNodeRing(),
		Replicas:      2,
		DefaultMode:   mode,
		QuorumTimeout: time.Second,
		Dial:          fake.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// remoteOwners lists a key's owners excluding self.
func remoteOwners(t *testing.T, ring *cluster.Ring, key string, n int) []string {
	t.Helper()
	owners, err := ring.LocateN(key, n)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, o := range owners {
		if o != "self" {
			out = append(out, o)
		}
	}
	return out
}

func TestReplicatorAsyncFanout(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	r := newTestReplicator(t, fake, protocol.ReplAsync)
	defer r.Close()

	keys := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for _, k := range keys {
		if err := r.ReplicateSet(k, []byte("v-"+k), 1, 0, protocol.ReplDefault); err != nil {
			t.Fatalf("async replicate %q: %v", k, err)
		}
	}
	if err := r.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Workers may still be finishing the job they dequeued last; settle.
	deadline := time.Now().Add(2 * time.Second)
	for _, k := range keys {
		for _, peer := range remoteOwners(t, r.opts.Ring, k, 2) {
			for {
				v, ok := fake.get(peer, k)
				if ok {
					if v != "v-"+k {
						t.Fatalf("peer %s key %s = %q", peer, k, v)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("peer %s never received %q", peer, k)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if got := r.asyncSent.Load(); got == 0 {
		t.Fatal("async sent counter stayed zero")
	}
}

func TestReplicatorQuorumAck(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	r := newTestReplicator(t, fake, protocol.ReplQuorum)
	defer r.Close()

	if err := r.ReplicateSet("q-key", []byte("qv"), 0, 0, protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum replicate: %v", err)
	}
	if r.quorumOK.Load() != 1 {
		t.Fatalf("quorum ok = %d", r.quorumOK.Load())
	}
	// With R=2 the quorum is 2; whether self owns the key or not, at
	// least one remote owner must hold the value now (synchronously).
	remotes := remoteOwners(t, r.opts.Ring, "q-key", 2)
	found := false
	for _, peer := range remotes {
		if v, ok := fake.get(peer, "q-key"); ok && v == "qv" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no remote owner of %v holds the value after quorum ack", remotes)
	}

	if err := r.ReplicateDelete("q-key", protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum delete: %v", err)
	}
	for _, peer := range remotes {
		if _, ok := fake.get(peer, "q-key"); ok {
			t.Fatalf("peer %s still holds deleted key", peer)
		}
	}
}

func TestReplicatorQuorumShortfall(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	boom := errors.New("peer down")
	fake.dialErr["peer-a"] = boom
	fake.dialErr["peer-b"] = boom
	r := newTestReplicator(t, fake, protocol.ReplQuorum)
	defer r.Close()

	err := r.ReplicateSet("q-key", []byte("qv"), 0, 0, protocol.ReplQuorum)
	if err == nil {
		t.Fatal("quorum write succeeded with every peer unreachable")
	}
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	if r.quorumFailed.Load() != 1 {
		t.Fatalf("quorum failed counter = %d", r.quorumFailed.Load())
	}
}

// TestReplicatorSingleNodeQuorum: with only self on the ring, a quorum
// write is satisfied by the local store alone.
func TestReplicatorSingleNodeQuorum(t *testing.T) {
	testutil.CheckGoroutines(t)
	ring := cluster.NewRing(16)
	ring.Add("self")
	r, err := NewReplicator(ReplOptions{
		Self: "self", Ring: ring, Replicas: 2,
		DefaultMode: protocol.ReplQuorum,
		Dial: func(string) (ReplConn, error) {
			return nil, errors.New("must not dial")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReplicateSet("k", []byte("v"), 0, 0, protocol.ReplQuorum); err != nil {
		t.Fatalf("single-node quorum: %v", err)
	}
}

// TestReplicatorQuorumCountsSelf: when this node owns the key, its own
// store is one of the quorum's votes. With R=3 and one peer down, self
// and the live peer are two of three owners, a majority.
func TestReplicatorQuorumCountsSelf(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	fake.dialErr["peer-a"] = errors.New("peer down")
	r, err := NewReplicator(ReplOptions{
		Self: "self", Ring: threeNodeRing(), Replicas: 3,
		DefaultMode: protocol.ReplQuorum, QuorumTimeout: time.Second,
		Dial: fake.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReplicateSet("k", []byte("v"), 0, 0, protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum write with self and one of two peers up: %v", err)
	}
}

// TestReplicatorDrainWaitsForStalledPeer: Drain returns nil only once
// every queued job has been sent. While both peers' first dials stall,
// Drain times out with the write unsent; once they complete, Drain
// returns and both peers already hold the value.
func TestReplicatorDrainWaitsForStalledPeer(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	r, err := NewReplicator(ReplOptions{
		Self: "self", Ring: threeNodeRing(), Replicas: 3,
		DefaultMode: protocol.ReplAsync,
		Dial: func(addr string) (ReplConn, error) {
			<-block
			return fake.dial(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer release() // before Close, which waits for the stalled workers

	if err := r.ReplicateSet("k", []byte("v"), 0, 0, protocol.ReplAsync); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(20 * time.Millisecond); err == nil {
		t.Fatal("Drain returned nil while both peers' dials were stalled")
	}
	release()
	if err := r.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"peer-a", "peer-b"} {
		if v, ok := fake.get(peer, "k"); !ok || v != "v" {
			t.Fatalf("after Drain, peer %s holds %q (present %v), want \"v\"", peer, v, ok)
		}
	}
}

// TestReplicatorTouchFanout: touch rides the same key-owner fan-out as
// sets — every remote owner of the key receives the new exptime.
// Pre-fix, touch never reached the Replicator at all, so replica TTLs
// silently diverged from the primary's.
func TestReplicatorTouchFanout(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	r := newTestReplicator(t, fake, protocol.ReplAsync)
	defer r.Close()

	keys := []string{"alpha", "bravo", "charlie"}
	for _, k := range keys {
		if err := r.ReplicateTouch(k, 300, protocol.ReplDefault); err != nil {
			t.Fatalf("replicate touch %q: %v", k, err)
		}
	}
	if err := r.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, k := range keys {
		for _, peer := range remoteOwners(t, r.opts.Ring, k, 2) {
			for {
				fake.mu.Lock()
				exp, ok := fake.touches[peer][k]
				fake.mu.Unlock()
				if ok {
					if exp != 300 {
						t.Fatalf("peer %s touch exptime for %s = %d, want 300", peer, k, exp)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("peer %s never received touch of %q", peer, k)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestReplicatorFlushFanoutAll: flush is keyless, so it targets every
// member except self — not just a key's owner set. A flush that skipped
// a non-owner peer would leave that peer serving the flushed data.
func TestReplicatorFlushFanoutAll(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	r := newTestReplicator(t, fake, protocol.ReplAsync)
	defer r.Close()

	if err := r.ReplicateFlush(60, protocol.ReplDefault); err != nil {
		t.Fatalf("replicate flush: %v", err)
	}
	if err := r.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, peer := range []string{"peer-a", "peer-b"} {
		for {
			fake.mu.Lock()
			delays := append([]int64(nil), fake.flushes[peer]...)
			fake.mu.Unlock()
			if len(delays) == 1 && delays[0] == 60 {
				break
			}
			if len(delays) > 1 {
				t.Fatalf("peer %s received %d flushes, want 1", peer, len(delays))
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %s never received the flush (got %v)", peer, delays)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReplicatorTouchFlushQuorum: quorum touch and flush acknowledge
// synchronously; a quorum flush counts the local flush as one vote and
// still succeeds with one of two peers down.
func TestReplicatorTouchFlushQuorum(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	r := newTestReplicator(t, fake, protocol.ReplQuorum)
	defer r.Close()

	if err := r.ReplicateTouch("qk", 120, protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum touch: %v", err)
	}
	if err := r.ReplicateFlush(0, protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum flush: %v", err)
	}
	fake.mu.Lock()
	flushed := len(fake.flushes["peer-a"]) + len(fake.flushes["peer-b"])
	fake.mu.Unlock()
	if flushed == 0 {
		t.Fatal("quorum flush reached no peer")
	}

	fake.mu.Lock()
	fake.fail["peer-a"] = errors.New("peer down")
	fake.mu.Unlock()
	if err := r.ReplicateFlush(5, protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum flush with one peer down must still reach majority (self + peer-b): %v", err)
	}
}

// TestReplicatorCloseJoinsWorkers: Close stops every peer worker even
// with queued work, and queued-but-unsent jobs are counted dropped.
func TestReplicatorCloseJoinsWorkers(t *testing.T) {
	testutil.CheckGoroutines(t)
	fake := newFakeReplStore()
	block := make(chan struct{})
	r, err := NewReplicator(ReplOptions{
		Self: "self", Ring: threeNodeRing(), Replicas: 2,
		DefaultMode: protocol.ReplAsync, QueueDepth: 4,
		Dial: func(addr string) (ReplConn, error) {
			<-block // stall the first dial so jobs pile up
			return fake.dial(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.ReplicateSet(fmt.Sprintf("k-%d", i), []byte("v"), 0, 0, protocol.ReplAsync)
	}
	close(block)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Second close is a no-op.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	queued := r.asyncQueued.Load()
	dropped := r.asyncDropped.Load()
	if queued == 0 || dropped == 0 {
		t.Fatalf("expected both queued (%d) and dropped (%d) with tiny stalled queues", queued, dropped)
	}
}

// Drain blocks until every job handed to a peer worker has been sent,
// or the timeout passes on the replicator's clock — the
// bounded-staleness knob tests lean on: after Drain, every async write
// issued before the call is on its replicas. It wakes on the workers'
// signal rather than polling, so it waits on no clock but the timeout.
func (r *Replicator) Drain(timeout time.Duration) error {
	deadline, stop := r.opts.Clock.After(timeout)
	defer stop()
	for r.unsent.Load() > 0 {
		select {
		case <-r.settled:
		case <-deadline:
			return fmt.Errorf("kvserver: replication drain timed out with %d unsent", r.unsent.Load())
		}
	}
	return nil
}
