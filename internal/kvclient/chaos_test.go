package kvclient_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kv3d/internal/clock"
	"kv3d/internal/faults"
	"kv3d/internal/faults/faultnet"
	"kv3d/internal/kvclient"
	"kv3d/internal/kvserver"
	"kv3d/internal/kvstore"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// chaosValue is a pure function of the key: values never change, so a
// hit anywhere in the replica set is correct by construction and the
// suite can assert full success, not just absence of crashes.
func chaosValue(key string) []byte {
	return []byte("value-of-" + key)
}

// TestChaosClusterFullSuccess is the headline resilience test: three
// kvserver nodes behind fault-injecting listeners, a seeded plan
// killing and reviving nodes (at most one down at a time) replayed by a
// Driver, and a shared ClusterClient with Replicas=2 driven from four
// goroutines. Every operation must succeed — replication covers the
// dead node, retries and failover cover the races — and the fault
// schedule must be byte-identical for the same seed.
func TestChaosClusterFullSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs a multi-second wall-clock plan")
	}
	testutil.CheckGoroutines(t)

	const nodes = 3
	genCfg := faults.GenConfig{
		Seed:      1234,
		Targets:   []string{"node-0", "node-1", "node-2"},
		Horizon:   2500 * sim.Millisecond,
		MeanGap:   200 * sim.Millisecond,
		MinOutage: 100 * sim.Millisecond,
		MaxOutage: 300 * sim.Millisecond,
		// Kinds defaults to NodeDown: the kill/revive schedule, capped
		// at one node down at a time.
	}
	plan, err := faults.Generate(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The determinism half of the acceptance criterion: regenerating
	// from the same seed yields a byte-identical schedule.
	again, err := faults.Generate(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plan.Encode(), again.Encode()) {
		t.Fatal("same seed produced different fault schedules")
	}
	if len(plan.Events) == 0 {
		t.Fatal("empty plan would make this suite vacuous")
	}

	reg := obs.NewRegistry()
	inj := faultnet.New()
	inj.SetProbes(reg)

	var addrs []string
	for i := 0; i < nodes; i++ {
		st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
		if err != nil {
			t.Fatal(err)
		}
		srv := kvserver.New(st, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeOn(inj.Listener(fmt.Sprintf("node-%d", i), ln))
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}

	clientReg := obs.NewRegistry()
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:          addrs,
		Replicas:       2,
		OpTimeout:      500 * time.Millisecond,
		MaxRetries:     8,
		RetryBaseDelay: 4 * time.Millisecond,
		RetryMaxDelay:  100 * time.Millisecond,
		EjectAfter:     1,
		Probation:      75 * time.Millisecond,
		Seed:           99,
		Probes:         clientReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	driver := faultnet.NewDriver(plan, inj.Apply)
	driver.Start()
	defer driver.Stop()
	planDone := make(chan struct{})
	go func() { driver.Wait(); close(planDone) }()

	const workers = 4
	var failures atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-planDone:
					return
				default:
				}
				if i >= 5000 { // safety cap; the plan ends the loop first
					return
				}
				key := fmt.Sprintf("chaos-w%d-k%d", w, i%25)
				if err := cc.Set(key, chaosValue(key), 0, 0); err != nil {
					failures.Add(1)
					t.Errorf("worker %d: set %s: %v", w, key, err)
					return
				}
				it, err := cc.Get(key)
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d: get %s: %v", w, key, err)
					return
				}
				if !bytes.Equal(it.Value, chaosValue(key)) {
					failures.Add(1)
					t.Errorf("worker %d: get %s returned %q", w, key, it.Value)
					return
				}
				ops.Add(2)
			}
		}(w)
	}
	wg.Wait()
	driver.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d operations failed; the resilience layer must absorb every planned fault",
			failures.Load(), ops.Load())
	}
	if ops.Load() < 100 {
		t.Fatalf("only %d operations ran against the plan — not a meaningful chaos run", ops.Load())
	}
	// The plan must actually have struck: kills were applied and the
	// client had to work for its 100%.
	if v := counterValue(reg, "faultnet.injected.node-down"); v == 0 {
		t.Fatal("no node-down event was applied; the suite ran against a healthy cluster")
	}
	if counterValue(clientReg, "kvclient.retries") == 0 &&
		counterValue(clientReg, "kvclient.failovers") == 0 &&
		counterValue(clientReg, "kvclient.ejections") == 0 {
		t.Fatal("client reports no retries, failovers, or ejections under a kill schedule")
	}
	t.Logf("chaos: %d ops, 0 failures, %d events applied, retries=%v failovers=%v ejections=%v readmissions=%v",
		ops.Load(), len(plan.Events),
		counterValue(clientReg, "kvclient.retries"),
		counterValue(clientReg, "kvclient.failovers"),
		counterValue(clientReg, "kvclient.ejections"),
		counterValue(clientReg, "kvclient.readmissions"))
}

// TestClusterClientNoLeaks pins connection and goroutine hygiene: a
// client that worked a cluster, survived a node death, and closed must
// leave nothing running.
func TestClusterClientNoLeaks(t *testing.T) {
	testutil.CheckGoroutines(t)
	var addrs []string
	var servers []*kvserver.Server
	for i := 0; i < 3; i++ {
		st, err := kvstore.New(kvstore.DefaultConfig(16 << 20))
		if err != nil {
			t.Fatal(err)
		}
		srv := kvserver.New(st, nil)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	cc, err := kvclient.NewCluster(kvclient.ClusterConfig{
		Addrs:      addrs,
		Replicas:   2,
		MaxRetries: 2,
		Clock:      clock.NewFake(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("leak-%d", i)
		if err := cc.Set(key, []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one node mid-life; the client must drop its connection
	// without stranding a goroutine.
	servers[1].Close()
	for i := 0; i < 60; i++ {
		cc.Set(fmt.Sprintf("leak-%d", i), []byte("v2"), 0, 0)
	}
	if err := cc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
