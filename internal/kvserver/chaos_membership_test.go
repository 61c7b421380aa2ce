package kvserver_test

// Live chaos membership suite: three (or four) real servers wired with
// Replicators and Migrators, a router that sends each write to one
// owner and lets that owner's Replicator fan it out, and the test acting
// as control plane — applying joins and leaves to every node's
// Membership the way a deployment's configuration push would. The
// invariants under test:
//
//   - zero lost acknowledged quorum writes: every ReplQuorum set that
//     returned nil is readable after the chaos, whatever died;
//   - bounded staleness for async writes: after Drain, every
//     acknowledged async write is readable;
//   - migration completes across membership churn, and every node's
//     membership view converges (View.Equal — same version, members,
//     and ownership epochs).

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kv3d/internal/cluster"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
	"kv3d/internal/testutil"
)

const chaosVirtualNodes = 64

// replDial is the peer dialer kv3d-server ships.
func replDial(addr string) (kvserver.ReplConn, error) {
	rc, err := kvclient.DialReplica(addr, time.Second)
	if err != nil {
		return nil, err
	}
	return rc, nil
}

// chaosNode is one live server plus its cluster-layer wiring.
type chaosNode struct {
	addr string
	srv  *kvserver.Server
	st   *kvstore.Store
	mem  *cluster.Membership
	repl *kvserver.Replicator
	mig  *kvserver.Migrator
}

// chaosHarness is the control plane: it owns the membership history so
// every node (including late joiners, which replay it) applies the
// same deltas in the same order and converges to equal views.
type chaosHarness struct {
	t     *testing.T
	mode  protocol.ReplMode
	nodes []*chaosNode
	// history records every membership transition; appends happen only
	// from the harness's control-plane calls (join/leave), which the
	// scenarios serialize.
	history []func(*cluster.Membership)
}

func newChaosHarness(t *testing.T, n int, mode protocol.ReplMode) *chaosHarness {
	t.Helper()
	testutil.CheckGoroutines(t)
	h := &chaosHarness{t: t, mode: mode}
	for i := 0; i < n; i++ {
		h.join(h.startNode())
	}
	return h
}

// startNode boots a server with an empty membership; join wires it in.
func (h *chaosHarness) startNode() *chaosNode {
	t := h.t
	t.Helper()
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := kvserver.New(st, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	n := &chaosNode{
		addr: srv.Addr().String(),
		srv:  srv,
		st:   st,
		mem:  cluster.NewMembership(chaosVirtualNodes),
	}
	n.repl, err = kvserver.NewReplicator(kvserver.ReplOptions{
		Self:          n.addr,
		Membership:    n.mem,
		Replicas:      2,
		DefaultMode:   h.mode,
		QuorumTimeout: 2 * time.Second,
		Dial:          replDial,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.mig, err = kvserver.NewMigrator(kvserver.MigOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetReplicator(n.repl)
	srv.SetMigrator(n.mig)
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		n.mig.Close()
		n.repl.Close()
	})
	return n
}

// join replays the membership history into a fresh node, then applies
// its join everywhere — the control-plane push.
func (h *chaosHarness) join(n *chaosNode) {
	for _, op := range h.history {
		op(n.mem)
	}
	addr := n.addr
	op := func(m *cluster.Membership) { m.Join(addr, 1) }
	h.history = append(h.history, op)
	h.nodes = append(h.nodes, n)
	for _, node := range h.nodes {
		op(node.mem)
	}
}

// leave applies a leave everywhere; the node object stays alive (a
// graceful leaver keeps serving while it drains).
func (h *chaosHarness) leave(addr string) {
	op := func(m *cluster.Membership) { m.Leave(addr) }
	h.history = append(h.history, op)
	for _, node := range h.nodes {
		op(node.mem)
	}
}

// assertViewsConverge checks every live node agrees on members,
// version, and ownership epochs.
func (h *chaosHarness) assertViewsConverge(skip map[string]bool) {
	h.t.Helper()
	var ref *chaosNode
	for _, n := range h.nodes {
		if skip[n.addr] {
			continue
		}
		if ref == nil {
			ref = n
			continue
		}
		if !ref.mem.View().Equal(n.mem.View()) {
			h.t.Fatalf("membership views diverge:\n%s: %+v\n%s: %+v",
				ref.addr, ref.mem.View(), n.addr, n.mem.View())
		}
	}
}

// drainAll flushes every node's async replication queue — the bounded-
// staleness bar for async writes.
func (h *chaosHarness) drainAll(skip map[string]bool) {
	h.t.Helper()
	for _, n := range h.nodes {
		if skip[n.addr] {
			continue
		}
		if err := n.repl.Drain(5 * time.Second); err != nil {
			h.t.Fatalf("drain %s: %v", n.addr, err)
		}
	}
}

// router sends each key where the servers place it: LocateN(key, 2)
// on the first node's Membership, captured once (h.nodes grows during a
// join; the Membership itself is safe for concurrent use). It keeps one
// BinaryClient per node and drops a connection on a transport error. A
// set goes to the first owner that answers, and that owner's Replicator
// fans it out; a get falls through the owners on a miss or a dead node.
// Like a BinaryClient it is not safe for concurrent use.
type router struct {
	mem   *cluster.Membership
	conns map[string]*kvclient.BinaryClient
}

func (h *chaosHarness) router() *router {
	r := &router{mem: h.nodes[0].mem, conns: map[string]*kvclient.BinaryClient{}}
	h.t.Cleanup(func() {
		for _, bc := range r.conns {
			bc.Close() // teardown; the servers are closing too
		}
	})
	return r
}

// answered reports whether err is a server's reply rather than a
// transport failure.
func answered(err error) bool {
	for _, e := range []error{kvclient.ErrNotFound, kvclient.ErrNotStored, kvclient.ErrExists, kvclient.ErrServer, kvclient.ErrClient} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// on runs fn against addr's connection, dialing it if needed.
func (r *router) on(addr string, fn func(*kvclient.BinaryClient) error) error {
	bc := r.conns[addr]
	if bc == nil {
		var err error
		bc, err = kvclient.DialBinaryOptions(addr, kvclient.Options{DialTimeout: time.Second, OpTimeout: time.Second})
		if err != nil {
			return err
		}
		r.conns[addr] = bc
	}
	err := fn(bc)
	if err != nil && !answered(err) {
		bc.Close() // the transport error is the signal; closing a broken conn is cleanup
		delete(r.conns, addr)
	}
	return err
}

func (r *router) set(key, val string, mode protocol.ReplMode) error {
	owners, err := r.mem.LocateN(key, 2)
	for _, addr := range owners {
		err = r.on(addr, func(bc *kvclient.BinaryClient) error {
			return bc.SetWithMode(key, []byte(val), 0, 0, mode)
		})
		if err == nil || answered(err) {
			return err
		}
	}
	return err
}

func (r *router) get(key string) (kvclient.Item, error) {
	owners, err := r.mem.LocateN(key, 2)
	for _, addr := range owners {
		var it kvclient.Item
		err = r.on(addr, func(bc *kvclient.BinaryClient) error {
			var e error
			it, e = bc.Get(key)
			return e
		})
		if err == nil {
			return it, nil
		}
	}
	return kvclient.Item{}, err
}

// migrateTo streams, from every existing node, the keys addr now owns.
// Returns the started streams.
func (h *chaosHarness) migrateTo(addr string, rate int) []*kvserver.MigrationStream {
	h.t.Helper()
	var streams []*kvserver.MigrationStream
	for _, n := range h.nodes {
		if n.addr == addr {
			continue
		}
		mem := n.mem
		st, err := n.mig.Start(kvserver.StreamOptions{
			Target:         addr,
			RateKeysPerSec: rate,
			Owned: func(k string) bool {
				owners, err := mem.LocateN(k, 2)
				if err != nil {
					return false
				}
				for _, o := range owners {
					if o == addr {
						return true
					}
				}
				return false
			},
		})
		if err != nil {
			h.t.Fatal(err)
		}
		streams = append(streams, st)
	}
	return streams
}

// TestChaosLiveJoinDuringFlashCrowd: a node joins mid-storm, once the
// writers have had a quarter of their writes acknowledged. Writers never
// stop; after the join, key-range migration streams hand the joiner its
// ranges. Every acknowledged async write must be readable afterwards.
func TestChaosLiveJoinDuringFlashCrowd(t *testing.T) {
	h := newChaosHarness(t, 3, protocol.ReplAsync)

	type acked struct{ key, val string }
	var (
		ackMu sync.Mutex
		acks  []acked
	)
	const writers, perWriter = 4, 150
	const joinAfter = writers * perWriter / 4
	var wg sync.WaitGroup
	joinNow := make(chan struct{})
	routers := make([]*router, writers)
	for w := range routers {
		routers[w] = h.router()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("fc-%d-%d", w, i)
				v := fmt.Sprintf("v-%d-%d", w, i)
				if err := routers[w].set(k, v, protocol.ReplAsync); err == nil {
					ackMu.Lock()
					acks = append(acks, acked{k, v})
					if len(acks) == joinAfter {
						close(joinNow)
					}
					ackMu.Unlock()
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	defer func() { <-writersDone }() // no writer outlives the servers, even on a failure

	select {
	case <-joinNow:
	case <-writersDone:
		t.Fatalf("writers finished with fewer than %d writes acknowledged", joinAfter)
	}
	joiner := h.startNode()
	h.join(joiner)
	streams := h.migrateTo(joiner.addr, 0)
	for _, st := range streams {
		if err := st.Wait(); err != nil {
			t.Fatalf("migration stream: %v", err)
		}
	}
	<-writersDone

	// Ownership epochs converge across all four nodes.
	h.assertViewsConverge(nil)
	// Bounded staleness: drain async queues, then every ack is readable.
	h.drainAll(nil)
	if len(acks) == 0 {
		t.Fatal("no write was acknowledged during the flash crowd")
	}
	r := h.router()
	for _, a := range acks {
		it, err := r.get(a.key)
		if err != nil {
			t.Fatalf("acked async write %q lost after join: %v", a.key, err)
		}
		if string(it.Value) != a.val {
			t.Fatalf("acked async write %q = %q, want %q", a.key, it.Value, a.val)
		}
	}
}

// TestChaosLiveKillReplicaMidQuorumWrite: a replica dies while quorum
// writes are in flight. Writes that lose their quorum fail visibly
// (ErrNoQuorum / transport error, not silent success); every write
// that WAS acknowledged must be readable from the survivors.
func TestChaosLiveKillReplicaMidQuorumWrite(t *testing.T) {
	h := newChaosHarness(t, 3, protocol.ReplQuorum)
	r := h.router()

	type acked struct{ key, val string }
	var acks []acked
	var failed int
	const total = 300
	victim := h.nodes[1]
	for i := 0; i < total; i++ {
		if i == total/3 {
			// Kill the replica mid-storm — no drain, no warning. Its
			// membership entry stays (a crash is not a leave), so
			// quorum math keeps counting it as an owner.
			victim.srv.Close()
		}
		k := fmt.Sprintf("qw-%d", i)
		v := fmt.Sprintf("qv-%d", i)
		err := r.set(k, v, protocol.ReplQuorum)
		if err == nil {
			acks = append(acks, acked{k, v})
		} else {
			failed++
		}
	}
	if len(acks) == 0 {
		t.Fatal("no quorum write was acknowledged")
	}
	if failed == 0 {
		t.Fatal("killing a replica of every second key failed no quorum write — acks are lying")
	}

	skip := map[string]bool{victim.addr: true}
	h.drainAll(skip)
	// Zero lost acknowledged quorum writes: every ack is readable from
	// the surviving replicas (the router falls through the corpse).
	for _, a := range acks {
		it, err := r.get(a.key)
		if err != nil {
			t.Fatalf("acked quorum write %q lost after replica kill: %v", a.key, err)
		}
		if string(it.Value) != a.val {
			t.Fatalf("acked quorum write %q = %q, want %q", a.key, it.Value, a.val)
		}
	}
	h.assertViewsConverge(nil)
}

// TestChaosLiveLeaveWithInFlightMigration: a node starts handing off
// its ranges, and the membership leave lands while the streams are
// still in flight — the push outruns the data. The streams must still
// complete (the leaver keeps serving while it drains) and no key may
// be lost once it goes dark.
func TestChaosLiveLeaveWithInFlightMigration(t *testing.T) {
	h := newChaosHarness(t, 4, protocol.ReplAsync)
	r := h.router()

	const n = 400
	want := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("lv-%d", i)
		v := fmt.Sprintf("lval-%d", i)
		if err := r.set(k, v, protocol.ReplAsync); err != nil {
			t.Fatalf("seed %q: %v", k, err)
		}
		want[k] = v
	}
	h.drainAll(nil)

	leaver := h.nodes[3]
	// Post-leave placement, computed on a scratch membership that
	// replays the same history minus the leaver: each remaining node
	// receives the keys it will own once the leaver is gone.
	scratch := cluster.NewMembership(chaosVirtualNodes)
	for _, node := range h.nodes {
		if node.addr != leaver.addr {
			scratch.Join(node.addr, 1)
		}
	}
	var streams []*kvserver.MigrationStream
	for _, node := range h.nodes[:3] {
		target := node.addr
		st, err := leaver.mig.Start(kvserver.StreamOptions{
			Target:         target,
			RateKeysPerSec: 400, // slow enough that the leave lands mid-stream
			Owned: func(k string) bool {
				owners, err := scratch.LocateN(k, 2)
				return err == nil && owners[0] == target
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}

	// The leave lands while the streams are in flight.
	h.leave(leaver.addr)

	for _, st := range streams {
		if err := st.Wait(); err != nil {
			t.Fatalf("in-flight migration broken by leave: %v", err)
		}
	}
	// Handoff done: now the leaver may actually go dark.
	leaver.srv.Close()

	skip := map[string]bool{leaver.addr: true}
	h.assertViewsConverge(nil) // every node, leaver included, saw the leave
	h.drainAll(skip)
	for k, v := range want {
		it, err := r.get(k)
		if err != nil {
			t.Fatalf("key %q lost across leave+migration: %v", k, err)
		}
		if string(it.Value) != v {
			t.Fatalf("key %q = %q, want %q", k, it.Value, v)
		}
	}
}
