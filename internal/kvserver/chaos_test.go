package kvserver_test

// Live chaos suite: three real servers on one fixed ring, each with a
// Replicator, and a router that sends each write to one owner and lets
// that owner's Replicator fan it out. The invariants under test:
//
//   - zero lost acknowledged quorum writes: every ReplQuorum set that
//     returned nil is readable after the chaos, whatever died;
//   - async writes reach every owner: after Drain, each acknowledged
//     ReplAsync set is in both of its owners' stores.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kv3d/internal/cluster"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
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

// drainAll flushes every node's async replication queue except those in
// skip.
func drainAll(t *testing.T, nodes []*liveNode, skip map[string]bool) {
	t.Helper()
	for _, n := range nodes {
		if skip[n.addr] {
			continue
		}
		if err := n.repl.Drain(5 * time.Second); err != nil {
			t.Fatalf("drain %s: %v", n.addr, err)
		}
	}
}

// router sends each key where the servers place it: LocateN(key, 2) on
// the cluster's ring. It keeps one BinaryClient per node and drops a
// connection on a transport error. A set goes to the first owner that
// answers, and that owner's Replicator fans it out; a get falls through
// the owners on a miss or a dead node. Like a BinaryClient it is not
// safe for concurrent use.
type router struct {
	ring  *cluster.Ring
	conns map[string]*kvclient.BinaryClient
}

func newRouter(t *testing.T, ring *cluster.Ring) *router {
	r := &router{ring: ring, conns: map[string]*kvclient.BinaryClient{}}
	t.Cleanup(func() {
		for _, bc := range r.conns {
			bc.Close() // teardown; the servers are closing too
		}
	})
	return r
}

// answered reports whether err is a server's reply rather than a
// transport failure.
func answered(err error) bool {
	for _, e := range []error{kvclient.ErrNotFound, kvclient.ErrNotStored, kvclient.ErrServer, kvclient.ErrClient} {
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
	owners, err := r.ring.LocateN(key, 2)
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
	owners, err := r.ring.LocateN(key, 2)
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

// TestChaosLiveKillReplicaMidQuorumWrite: a replica dies while quorum
// writes are in flight. Writes that lose their quorum fail visibly
// (ErrNoQuorum / transport error, not silent success); every write
// that WAS acknowledged must be readable from the survivors.
func TestChaosLiveKillReplicaMidQuorumWrite(t *testing.T) {
	testutil.CheckGoroutines(t)
	nodes, ring := startLiveCluster(t, 3)
	r := newRouter(t, ring)

	type acked struct{ key, val string }
	var acks []acked
	var failed int
	const total = 300
	victim := nodes[1]
	for i := 0; i < total; i++ {
		if i == total/3 {
			// Kill the replica mid-storm — no drain, no warning. It
			// stays on every ring (the member set is fixed), so quorum
			// math keeps counting it as an owner.
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

	drainAll(t, nodes, map[string]bool{victim.addr: true})
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
}

// TestChaosLiveAsyncStormReachesEveryOwner: four writers, each with its
// own router, store 600 keys async at once, so replica jobs queue
// behind later requests on the same connections. Once every node has
// drained, each key is in both of its owners' stores with its own
// value: the accepting node's, and the copy its Replicator sent.
func TestChaosLiveAsyncStormReachesEveryOwner(t *testing.T) {
	testutil.CheckGoroutines(t)
	nodes, ring := startLiveCluster(t, 3)
	byAddr := map[string]*liveNode{}
	for _, n := range nodes {
		byAddr[n.addr] = n
	}

	const writers, perWriter = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		r := newRouter(t, ring)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("as-%d-%d", w, i)
				if err := r.set(k, "v-"+k, protocol.ReplAsync); err != nil {
					t.Errorf("async set %q with every node up: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	drainAll(t, nodes, nil)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("as-%d-%d", w, i)
			owners, err := ring.LocateN(k, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range owners {
				e, ok := byAddr[o].st.Get(k)
				if !ok || string(e.Value) != "v-"+k {
					t.Fatalf("after Drain, owner %s holds %q = %q (present %v), want %q", o, k, e.Value, ok, "v-"+k)
				}
			}
		}
	}
}
