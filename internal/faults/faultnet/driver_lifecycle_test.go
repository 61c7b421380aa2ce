package faultnet

import (
	"testing"
	"time"

	"kv3d/internal/faults"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// Driver lifecycle coverage, mirroring the kvserver leak tests: however
// a replay ends — schedule exhausted, or aborted — the driver goroutine
// must be gone, Stop must stay safe to call, and Wait must never wedge.

// TestDriverCompletesThenStopNoLeak: after a schedule runs dry, the
// driver goroutine has exited; Stop on a completed driver returns
// immediately instead of hanging on the already-closed done channel.
func TestDriverCompletesThenStopNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	plan := &faults.Plan{
		Horizon: 10 * sim.Millisecond,
		Events: []faults.Event{
			{At: sim.Millisecond, Kind: faults.NodeDown, Target: "a"},
			{At: 2 * sim.Millisecond, Kind: faults.NodeUp, Target: "a"},
		},
	}
	applied := 0
	d := NewDriver(plan, func(faults.Event) { applied++ })
	d.Start()
	d.Wait()
	d.Stop()
	if applied != 2 {
		t.Fatalf("applied %d events, want 2", applied)
	}
}

// TestDriverStopUnblocksWait: Stop mid-schedule must release a
// concurrent Wait promptly — a Wait that outlives Stop is exactly the
// shutdown hang the chaos harness cannot tolerate.
func TestDriverStopUnblocksWait(t *testing.T) {
	testutil.CheckGoroutines(t)
	plan := &faults.Plan{
		Horizon: 10 * sim.Second,
		Events: []faults.Event{
			{At: 5 * sim.Second, Kind: faults.NodeDown, Target: "a"},
		},
	}
	d := NewDriver(plan, func(faults.Event) {})
	d.Start()
	waited := make(chan struct{})
	go func() {
		d.Wait()
		close(waited)
	}()
	d.Stop()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after Stop")
	}
}
