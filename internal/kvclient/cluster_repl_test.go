package kvclient_test

// Tests for the replication-aware cluster surface: per-op write modes,
// read-repair, and the GetMulti failover-round re-resolution fix.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvclient"
	"kv3d/internal/obs"
	"kv3d/internal/protocol"
)

// startReplCluster builds a binary-protocol cluster with fast retries,
// a one-failure breaker, and a long probation (ejected nodes stay out
// for the duration of the test).
func startReplCluster(t *testing.T, n, replicas int, readRepair bool) (*kvclient.ClusterClient, []string, *obs.Registry) {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		_, addr := startNode(t)
		addrs = append(addrs, addr)
	}
	reg := obs.NewRegistry()
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:       addrs,
		Replicas:    replicas,
		Binary:      true,
		ReadRepair:  readRepair,
		MaxRetries:  1,
		EjectAfter:  1,
		Probation:   time.Minute,
		DialTimeout: 500 * time.Millisecond,
		OpTimeout:   500 * time.Millisecond,
		Clock:       clock.NewFake(0),
		Probes:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc, addrs, reg
}

// TestClusterGetMultiReResolvesOwners is the regression for the frozen
// replica-set staleness bug: with Replicas=1, a key whose only listed
// owner dies mid-scatter used to fail even though the ejection had
// already promoted a live node — holding the key — to primary. Failover
// rounds must re-resolve placement, not replay the stale list.
func TestClusterGetMultiReResolvesOwners(t *testing.T) {
	var addrs []string
	servers := map[string]interface{ Close() error }{}
	for i := 0; i < 2; i++ {
		srv, addr := startNode(t)
		addrs = append(addrs, addr)
		servers[addr] = srv
	}
	reg := obs.NewRegistry()
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:       addrs,
		Replicas:    1,
		MaxRetries:  1,
		EjectAfter:  1,
		Probation:   time.Minute,
		DialTimeout: 500 * time.Millisecond,
		OpTimeout:   500 * time.Millisecond,
		Clock:       clock.NewFake(0),
		Probes:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })

	// Find a key whose single owner is addrs[0].
	key := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("rk-%d", i)
		owners, err := cc.Owners(k)
		if err != nil {
			t.Fatal(err)
		}
		if owners[0] == addrs[0] {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key placed on node 0 in 10000 tries")
	}

	// Seed the value on the *other* node — the one that becomes primary
	// once node 0 is ejected — then kill node 0.
	direct, err := kvclient.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.Set(key, []byte("survivor"), 0, 0); err != nil {
		t.Fatal(err)
	}
	servers[addrs[0]].Close()

	items, err := cc.GetMulti([]string{key})
	if err != nil {
		t.Fatalf("GetMulti after owner death: %v (stale frozen replica set?)", err)
	}
	it, ok := items[key]
	if !ok || string(it.Value) != "survivor" {
		t.Fatalf("items[%q] = %+v, ok=%v", key, it, ok)
	}
	if got := reg.Counter("kvclient.failovers").Value(); got == 0 {
		t.Fatal("failover counter stayed zero")
	}
}

func TestClusterSetModeNeedsBinary(t *testing.T) {
	_, addr := startNode(t)
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	err = cc.SetMode("k", []byte("v"), 0, 0, protocol.ReplQuorum)
	if !errors.Is(err, kvclient.ErrModeNeedsBinary) {
		t.Fatalf("err = %v, want ErrModeNeedsBinary", err)
	}
}

// TestClusterSetModeRoundTrip: mode-carrying writes land on the
// primary (a replication-free server ignores the mode) and are
// readable; DeleteMode removes them.
func TestClusterSetModeRoundTrip(t *testing.T) {
	cc, _, _ := startReplCluster(t, 3, 2, false)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("sm-%d", i)
		if err := cc.SetMode(k, []byte("v-"+k), 9, 0, protocol.ReplAsync); err != nil {
			t.Fatalf("SetMode %q: %v", k, err)
		}
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("sm-%d", i)
		it, err := cc.Get(k)
		if err != nil || string(it.Value) != "v-"+k || it.Flags != 9 {
			t.Fatalf("Get %q = %+v, %v", k, it, err)
		}
	}
	if err := cc.DeleteMode("sm-0", protocol.ReplQuorum); err != nil {
		t.Fatalf("DeleteMode: %v", err)
	}
	if _, err := cc.Get("sm-0"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("Get after DeleteMode = %v, want ErrNotFound", err)
	}
	if err := cc.DeleteMode("sm-absent", protocol.ReplQuorum); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("DeleteMode absent = %v, want ErrNotFound", err)
	}
}

// TestClusterSetModeFailsOver: a dead primary does not fail the write
// — any owner accepts a mode-carrying frame and fans out.
func TestClusterSetModeFailsOver(t *testing.T) {
	var addrs []string
	var srvs []interface{ Close() error }
	for i := 0; i < 3; i++ {
		srv, addr := startNode(t)
		addrs = append(addrs, addr)
		srvs = append(srvs, srv)
	}
	reg := obs.NewRegistry()
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs: addrs, Replicas: 2, Binary: true,
		MaxRetries: 1, EjectAfter: 1, Probation: time.Minute,
		DialTimeout: 500 * time.Millisecond, OpTimeout: 500 * time.Millisecond,
		Clock: clock.NewFake(0), Probes: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })

	owners, err := cc.Owners("fo-key")
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if a == owners[0] {
			srvs[i].Close()
		}
	}
	if err := cc.SetMode("fo-key", []byte("fv"), 0, 0, protocol.ReplAsync); err != nil {
		t.Fatalf("SetMode with dead primary: %v", err)
	}
	if it, err := cc.Get("fo-key"); err != nil || string(it.Value) != "fv" {
		t.Fatalf("Get after failover write = %+v, %v", it, err)
	}
	if reg.Counter("kvclient.failovers").Value() == 0 {
		t.Fatal("failover counter stayed zero")
	}
}

// TestClusterReadRepair: a replica that lost a key (or diverged) is
// rewritten from the authoritative copy on the next Get.
func TestClusterReadRepair(t *testing.T) {
	cc, _, reg := startReplCluster(t, 3, 2, true)

	if err := cc.Set("rr-key", []byte("good"), 3, 0); err != nil {
		t.Fatal(err)
	}
	owners, err := cc.Owners("rr-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) < 2 {
		t.Fatalf("owners = %v", owners)
	}
	// Clobber the secondary replica behind the cluster client's back.
	direct, err := kvclient.DialBinary(owners[1])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.Delete("rr-key"); err != nil {
		t.Fatal(err)
	}

	it, err := cc.Get("rr-key")
	if err != nil || string(it.Value) != "good" || it.Flags != 3 {
		t.Fatalf("Get = %+v, %v", it, err)
	}
	if got := reg.Counter("kvclient.read_repairs").Value(); got != 1 {
		t.Fatalf("read_repairs = %d, want 1", got)
	}
	// The repaired replica answers directly now.
	rit, err := direct.Get("rr-key")
	if err != nil || string(rit.Value) != "good" || rit.Flags != 3 {
		t.Fatalf("repaired replica Get = %+v, %v", rit, err)
	}

	// A converged read repairs nothing further.
	if _, err := cc.Get("rr-key"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("kvclient.read_repairs").Value(); got != 1 {
		t.Fatalf("read_repairs after converged read = %d, want still 1", got)
	}
}

// TestClusterReadRepairMissEverywhere: with repair on, a key nobody
// holds is still a plain miss.
func TestClusterReadRepairMissEverywhere(t *testing.T) {
	cc, _, reg := startReplCluster(t, 3, 2, true)
	if _, err := cc.Get("rr-absent"); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := reg.Counter("kvclient.read_repairs").Value(); got != 0 {
		t.Fatalf("read_repairs = %d, want 0", got)
	}
}
