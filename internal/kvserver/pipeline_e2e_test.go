package kvserver_test

// Live end-to-end coverage for the touch/flush replication fix and the
// flush-before-read datapath: real servers with default options, real
// Replicators dialing each other over loopback, and a real binary
// client driving them.

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"kv3d/internal/cluster"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
	"kv3d/internal/testutil"
)

// liveNode is one live server plus its replication wiring.
type liveNode struct {
	addr string
	srv  *kvserver.Server
	st   *kvstore.Store
	mem  *cluster.Membership
	repl *kvserver.Replicator
}

// startLiveCluster boots n live servers with a fully-joined shared
// membership and default-quorum replication.
func startLiveCluster(t *testing.T, n int) []*liveNode {
	t.Helper()
	nodes := make([]*liveNode, 0, n)
	for i := 0; i < n; i++ {
		st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
		if err != nil {
			t.Fatal(err)
		}
		srv := kvserver.New(st, nil)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &liveNode{
			addr: srv.Addr().String(),
			srv:  srv,
			st:   st,
			mem:  cluster.NewMembership(64),
		})
	}
	for _, node := range nodes {
		for _, peer := range nodes {
			node.mem.Join(peer.addr, 1)
		}
	}
	for _, node := range nodes {
		repl, err := kvserver.NewReplicator(kvserver.ReplOptions{
			Self:          node.addr,
			Membership:    node.mem,
			Replicas:      2,
			DefaultMode:   protocol.ReplQuorum,
			QuorumTimeout: 2 * time.Second,
			Dial:          replDial,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.repl = repl
		node.srv.SetReplicator(repl)
		go node.srv.Serve()
		node := node
		t.Cleanup(func() {
			node.srv.Close()
			node.repl.Close()
		})
	}
	return nodes
}

// holders counts how many nodes' local stores currently return the key.
func holders(nodes []*liveNode, key string) int {
	n := 0
	for _, node := range nodes {
		if _, ok := node.st.Get(key); ok {
			n++
		}
	}
	return n
}

// TestLiveTouchFlushDivergence is the 3-node regression for the
// touch/flush replication gap: a negative-exptime touch issued through
// one node must expire the key on every replica, and a flush through
// one node must empty all three stores. Pre-fix, neither operation
// reached the Replicator, so replicas kept serving data the primary had
// already invalidated.
func TestLiveTouchFlushDivergence(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	nodes := startLiveCluster(t, 3)

	cli, err := kvclient.DialBinary(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("div-%d", i)
		if err := cli.SetWithMode(keys[i], []byte("v"), 0, 0, protocol.ReplQuorum); err != nil {
			t.Fatalf("quorum set %s: %v", keys[i], err)
		}
	}
	// Quorum sets replicate to the key's owners: each key must be held
	// by at least two of the three stores before the divergence check
	// means anything.
	for _, k := range keys {
		if h := holders(nodes, k); h < 2 {
			t.Fatalf("after quorum set, %s held by %d nodes, want >= 2", k, h)
		}
	}

	// Touch with exptime -1 through node 0: immediately expired, and
	// the expiry must propagate to every replica.
	for _, k := range keys[:6] {
		if err := cli.TouchWithMode(k, -1, protocol.ReplQuorum); err != nil {
			t.Fatalf("quorum touch %s: %v", k, err)
		}
	}
	for _, k := range keys[:6] {
		if h := holders(nodes, k); h != 0 {
			t.Fatalf("after negative-exptime touch, %s still held by %d nodes (replica TTLs diverged)", k, h)
		}
	}

	// Flush through node 0: every node must converge to empty. The
	// flush epoch is the next wall second, so poll briefly.
	if err := cli.FlushWithMode(0, protocol.ReplQuorum); err != nil {
		t.Fatalf("quorum flush: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		remaining := 0
		for _, k := range keys[6:] {
			remaining += holders(nodes, k)
		}
		if remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after cluster flush, %d key-holders remain across nodes (flush did not fan out)", remaining)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writeCountingListener counts the transport writes of every connection
// it accepts — on a TCP socket, the server's write syscalls.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, writes: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestLiveBatchedPipeline: a server with zero Options serves a
// pipelined client correctly, and answers a 16-deep pipeline in far
// fewer writes than ops — the replies are staged and leave together
// when the session goes back to read (1 write per op before; 1/16 is
// the floor, 0.2 leaves room for a burst the kernel delivers in pieces).
func TestLiveBatchedPipeline(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &writeCountingListener{Listener: raw}
	srv := kvserver.NewWithOptions(st, nil, kvserver.Options{})
	go srv.ServeOn(ln)
	defer srv.Close()

	cli, err := kvclient.DialBinary(raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("pk-%d", i)
		if i%4 == 0 {
			continue // leave a quarter missing
		}
		if err := cli.Set(keys[i], []byte(fmt.Sprintf("val-%d", i)), uint32(i), 0); err != nil {
			t.Fatalf("set %s: %v", keys[i], err)
		}
	}
	items, err := cli.GetMulti(keys)
	if err != nil {
		t.Fatalf("pipelined multiget: %v", err)
	}
	for i, k := range keys {
		it, ok := items[k]
		if i%4 == 0 {
			if ok {
				t.Fatalf("missing key %s returned %+v", k, it)
			}
			continue
		}
		if !ok || string(it.Value) != fmt.Sprintf("val-%d", i) || it.Flags != uint32(i) {
			t.Fatalf("key %s = %+v, want val-%d/flags %d", k, it, i, i)
		}
	}

	const depth, rounds = 16, 50
	before := ln.writes.Load()
	for r := 0; r < rounds; r++ {
		if _, err := cli.GetMulti(keys[r%4*depth : r%4*depth+depth]); err != nil {
			t.Fatalf("16-deep multiget: %v", err)
		}
	}
	perOp := float64(ln.writes.Load()-before) / (depth * rounds)
	if perOp >= 0.2 {
		t.Fatalf("a %d-deep pipeline cost %.2f server writes per op, want < 0.2", depth, perOp)
	}
}
