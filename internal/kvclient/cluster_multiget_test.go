package kvclient_test

// Tests for ClusterClient.GetMulti: scatter-gather partitioning across
// the ring, partial-result semantics when a node is down, and replica
// failover with counter accounting.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/obs"
)

// startMultigetCluster builds a cluster with fast-failing retry config
// (no real sleeps) and a probe registry, so down-node tests stay quick.
func startMultigetCluster(t *testing.T, n, replicas int) (*kvclient.ClusterClient, map[string]*kvserver.Server, *obs.Registry) {
	t.Helper()
	var addrs []string
	servers := map[string]*kvserver.Server{}
	for i := 0; i < n; i++ {
		srv, addr := startNode(t)
		addrs = append(addrs, addr)
		servers[addr] = srv
	}
	reg := obs.NewRegistry()
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:       addrs,
		Replicas:    replicas,
		MaxRetries:  1,
		DialTimeout: 500 * time.Millisecond,
		OpTimeout:   500 * time.Millisecond,
		Clock:       clock.NewFake(0), // backoff advances the fake instead of waiting
		Probes:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc, servers, reg
}

func TestClusterGetMultiSpansNodes(t *testing.T) {
	cc, _, _ := startMultigetCluster(t, 4, 1)
	const n = 100
	keys := make([]string, 0, n+2)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("mk%d", i)
		keys = append(keys, k)
		if err := cc.Set(k, []byte(fmt.Sprintf("mv%d", i)), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	keys = append(keys, "absent-a", "absent-b")

	items, err := cc.GetMulti(keys)
	if err != nil {
		t.Fatalf("GetMulti: %v", err)
	}
	if len(items) != n {
		t.Fatalf("GetMulti returned %d items, want %d", len(items), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("mk%d", i)
		it, ok := items[k]
		if !ok || string(it.Value) != fmt.Sprintf("mv%d", i) || it.Flags != uint32(i) {
			t.Fatalf("items[%q] = %+v, ok=%v", k, it, ok)
		}
	}
	if _, ok := items["absent-a"]; ok {
		t.Fatal("missing key present in result")
	}
}

func TestClusterGetMultiEmptyAndDuplicates(t *testing.T) {
	cc, _, _ := startMultigetCluster(t, 2, 1)
	items, err := cc.GetMulti(nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("GetMulti(nil) = %v items, err %v", len(items), err)
	}
	if err := cc.Set("dup", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	items, err = cc.GetMulti([]string{"dup", "dup", "", "dup"})
	if err != nil {
		t.Fatalf("GetMulti: %v", err)
	}
	if len(items) != 1 || string(items["dup"].Value) != "v" {
		t.Fatalf("GetMulti with duplicates = %+v", items)
	}
}

// TestClusterGetMultiPartialOnNodeLoss: with R=1 and one node dead, the
// keys on healthy nodes still come back — alongside an error naming the
// unreachable remainder. The result map is usable for cache-aside
// fallback even on the error path.
func TestClusterGetMultiPartialOnNodeLoss(t *testing.T) {
	cc, servers, _ := startMultigetCluster(t, 4, 1)
	const n = 120
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("pk%d", i)
		if err := cc.Set(keys[i], []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one node; its keys become unreachable (R=1: no fallback).
	var victim string
	var victimKeys int
	for addr, srv := range servers {
		victim = addr
		victimKeys = srv.Store().ItemCount()
		srv.Close()
		break
	}
	if victimKeys == 0 {
		t.Fatalf("victim %s held no keys; test can't observe partial failure", victim)
	}

	items, err := cc.GetMulti(keys)
	if err == nil {
		t.Fatalf("GetMulti with a dead R=1 node returned nil error (%d items)", len(items))
	}
	if !strings.Contains(err.Error(), "unreachable on every replica") {
		t.Fatalf("error does not describe partial failure: %v", err)
	}
	if want := n - victimKeys; len(items) != want {
		t.Fatalf("partial result has %d items, want %d (victim held %d)", len(items), want, victimKeys)
	}
	for k, it := range items {
		if string(it.Value) != "v" {
			t.Fatalf("items[%q] = %q", k, it.Value)
		}
	}
}

// TestClusterGetMultiFailsOverToReplicas: with R=2 one dead node costs
// nothing — its keys fail over to the second replica, the full result
// comes back clean, and the failover counter records the rescued keys.
func TestClusterGetMultiFailsOverToReplicas(t *testing.T) {
	cc, servers, reg := startMultigetCluster(t, 4, 2)
	const n = 120
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fk%d", i)
		if err := cc.Set(keys[i], []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range servers {
		srv.Close()
		break
	}

	items, err := cc.GetMulti(keys)
	if err != nil {
		t.Fatalf("GetMulti with R=2 and one dead node: %v", err)
	}
	if len(items) != n {
		t.Fatalf("GetMulti returned %d of %d keys", len(items), n)
	}
	if got := counterValue(reg, "kvclient.failovers"); got == 0 {
		t.Fatal("no failovers recorded although a replica node was dead")
	}
	if got := counterValue(reg, "kvclient.transport_errors"); got == 0 {
		t.Fatal("no transport errors recorded although a node was dead")
	}
}

// TestClusterGetMultiAllNodesDown: every replica gone — the error must
// wrap a transport-level cause and the (empty) map must still be
// non-nil.
func TestClusterGetMultiAllNodesDown(t *testing.T) {
	cc, servers, _ := startMultigetCluster(t, 2, 1)
	if err := cc.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv.Close()
	}
	items, err := cc.GetMulti([]string{"k"})
	if err == nil {
		t.Fatal("GetMulti against a dead cluster returned nil error")
	}
	if errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("dead cluster misreported as miss: %v", err)
	}
	if items == nil {
		t.Fatal("GetMulti returned a nil map on error; want empty map for partial-result contract")
	}
}
