package kvserver_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"kv3d/internal/cluster"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/protocol"
	"kv3d/internal/testutil"
)

// TestReplicationContractOnTheClient drives a quorum Replicator whose
// one peer is down through a real BinaryClient, and checks what each
// side of the wire makes of the replies: a quorum set that cannot
// gather its acks is ErrNoQuorum (and so ErrServer), a delete of an
// absent key is ErrNotFound, and the peer link kv3d-server dials with
// (kvclient.DialReplica) folds that not-found to success, as
// kvserver.ReplConn asks.
func TestReplicationContractOnTheClient(t *testing.T) {
	testutil.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := ln.Addr().String()
	ln.Close() // nothing listens here: the peer is down

	st, err := kvstore.New(kvstore.DefaultConfig(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := kvserver.New(st, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	self := srv.Addr().String()
	ring := cluster.NewRing(chaosVirtualNodes)
	ring.Add(self)
	ring.Add(down)
	repl, err := kvserver.NewReplicator(kvserver.ReplOptions{
		Self:          self,
		Ring:          ring,
		Replicas:      2, // both nodes own every key
		DefaultMode:   protocol.ReplQuorum,
		QuorumTimeout: 2 * time.Second,
		Dial:          replDial,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetReplicator(repl)
	go srv.Serve()
	defer repl.Close()
	defer srv.Close()

	bc, err := kvclient.DialBinaryOptions(self, kvclient.Options{OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	err = bc.SetWithMode("k", []byte("v"), 0, 0, protocol.ReplQuorum)
	if !errors.Is(err, kvclient.ErrNoQuorum) || !errors.Is(err, kvclient.ErrServer) {
		t.Fatalf("quorum set with its one peer down = %v, want ErrNoQuorum wrapping ErrServer", err)
	}
	if err := bc.DeleteWithMode("absent", protocol.ReplQuorum); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("delete of an absent key = %v, want ErrNotFound", err)
	}

	rc, err := kvclient.DialReplica(self, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.DeleteWithMode("absent", protocol.ReplLocal); err != nil {
		t.Fatalf("replica delete of an absent key = %v, want nil", err)
	}
	if err := rc.TouchWithMode("absent", 60, protocol.ReplLocal); err != nil {
		t.Fatalf("replica touch of an absent key = %v, want nil", err)
	}
}
