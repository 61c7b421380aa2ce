// Package clustersim studies request distribution across the stacks of
// a Mercury/Iridium server (§3.8): keys map onto stacks through a
// consistent-hash ring, a Zipf-skewed workload concentrates traffic,
// and the server's effective throughput is set by its hottest stack.
// The paper argues that many physical nodes (96 stacks × many cores)
// minimize resource contention; this module quantifies that, including
// the effect of virtual-node count on arc balance.
package clustersim

import (
	"fmt"

	"kv3d/internal/cluster"
	"kv3d/internal/faults"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/workload"
)

// Config describes one load-distribution experiment.
type Config struct {
	// Stacks is the number of physical nodes in the box.
	Stacks int
	// VirtualNodes per stack on the ring.
	VirtualNodes int
	// Keys is the key-space size.
	Keys int
	// ZipfSkew shapes key popularity (0 = uniform).
	ZipfSkew float64
	// Requests is the sample size.
	Requests int
	// Seed makes the run reproducible.
	Seed uint64

	// Trace, when non-nil, records per-stack cumulative request counts
	// as counter tracks. The experiment has no simulated clock, so the
	// time axis is the request index (1 request = 1us in the viewer):
	// a diverging counter lane is a hot stack forming.
	Trace *obs.Tracer
	// Probes, when non-nil, receives "clustersim.<stack>.requests"
	// counters plus "clustersim.requests" for the total (and
	// "clustersim.faults.*" when a plan is set).
	Probes *obs.Registry
	// SampleEveryRequests is the counter-sampling stride (default:
	// Requests/100, at least 1).
	SampleEveryRequests int

	// Faults, when non-nil, replays the plan's stack events on the
	// experiment's synthetic time axis (request i happens at i
	// microseconds): StackFail/NodeDown removes the target from the
	// ring, StackDegrade scales its capacity to Arg percent,
	// StackRecover/NodeUp restores it. Live-only kinds (resets, stalls,
	// latency) are ignored here. A nil plan adds no work and changes no
	// output, so existing golden results are untouched.
	Faults *faults.Plan
}

// Result reports the distribution outcome.
type Result struct {
	// PerStack is the request count per stack name.
	PerStack map[string]int
	// MaxLoad / MeanLoad is the imbalance factor: effective server
	// throughput is capacity/imbalance once the hottest stack saturates.
	Imbalance float64
	// HottestShare is the busiest stack's share of all requests.
	HottestShare float64
	// EffectiveThroughputFraction is 1/Imbalance: the fraction of
	// aggregate capacity usable before the hottest stack saturates.
	EffectiveThroughputFraction float64

	// FailedStacks and DegradedStacks count stacks failed or degraded
	// when the run ended (0 without a fault plan).
	FailedStacks   int
	DegradedStacks int
	// JoinedStacks counts stacks added by NodeJoin events beyond the
	// initial set and still members at run end; LeftStacks counts
	// initial stacks that left via NodeLeave and did not rejoin.
	JoinedStacks int
	LeftStacks   int
	// MembershipEvents counts applied join/leave/partition events.
	MembershipEvents int
	// SurvivingCapacityFraction is the end-of-run sum of per-stack
	// capacity factors (failed = 0, degraded = Arg%) over the stack
	// count; 1.0 means full health.
	SurvivingCapacityFraction float64
	// LostRequests counts requests that found an empty ring (every
	// stack failed at once).
	LostRequests int
}

// Run executes the distribution experiment.
func Run(cfg Config) (Result, error) {
	if cfg.Stacks <= 0 {
		return Result{}, fmt.Errorf("clustersim: need stacks > 0, got %d", cfg.Stacks)
	}
	if cfg.Requests <= 0 {
		return Result{}, fmt.Errorf("clustersim: need requests > 0, got %d", cfg.Requests)
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 100_000
	}
	ring := cluster.NewRing(cfg.VirtualNodes)
	names := make([]string, cfg.Stacks)
	tracks := map[string]obs.TrackID{}
	for i := 0; i < cfg.Stacks; i++ {
		names[i] = fmt.Sprintf("stack-%02d", i)
		ring.Add(names[i])
		if cfg.Trace.Enabled() {
			tracks[names[i]] = cfg.Trace.RegisterTrack(names[i])
		}
	}
	gen, err := workload.NewGenerator(workload.MixConfig{
		GetFraction: 1.0,
		Keys:        cfg.Keys,
		ZipfSkew:    cfg.ZipfSkew,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	stride := cfg.SampleEveryRequests
	if stride <= 0 {
		stride = cfg.Requests / 100
		if stride < 1 {
			stride = 1
		}
	}
	// Fault state: capacity factor per stack (1 = healthy, 0 = failed)
	// and the plan cursor. All nil/empty when no plan is configured, so
	// the healthy path does no extra work.
	var sched *faults.Schedule
	capacity := map[string]float64{}
	down := map[string]bool{}
	// Membership state beyond up/down: initial members, stacks that
	// left gracefully, extra stacks joined mid-run, and open partition
	// windows (target -> window end on the request-index time axis).
	initial := map[string]bool{}
	left := map[string]bool{}
	extra := map[string]bool{}
	partEnd := map[string]sim.Duration{}
	applied, lost, memberEvents := 0, 0, 0
	if cfg.Faults != nil {
		sched = cfg.Faults.Schedule()
		for _, name := range names {
			capacity[name] = 1
			initial[name] = true
		}
	}
	perStack := make(map[string]int, cfg.Stacks)
	for i := 0; i < cfg.Requests; i++ {
		if sched != nil {
			now := sim.Duration(i) * sim.Microsecond
			// Close expired partition windows: the target rejoins the
			// ring unless it is also down or has left.
			if len(partEnd) > 0 {
				for tgt, end := range partEnd {
					if now >= end {
						delete(partEnd, tgt)
						if !down[tgt] && !left[tgt] {
							ring.Add(tgt)
						}
					}
				}
			}
			for _, ev := range sched.Due(now) {
				applied++
				switch ev.Kind {
				case faults.StackFail, faults.NodeDown:
					if !down[ev.Target] {
						down[ev.Target] = true
						ring.Remove(ev.Target)
					}
				case faults.StackDegrade:
					capacity[ev.Target] = float64(ev.Arg) / 100
				case faults.StackRecover, faults.NodeUp:
					if down[ev.Target] {
						down[ev.Target] = false
						if _, parted := partEnd[ev.Target]; !parted && !left[ev.Target] {
							ring.Add(ev.Target)
						}
					}
					capacity[ev.Target] = 1
				case faults.NodeJoin:
					memberEvents++
					if left[ev.Target] {
						delete(left, ev.Target)
					} else if !initial[ev.Target] && !extra[ev.Target] {
						extra[ev.Target] = true
						capacity[ev.Target] = 1
					}
					if !down[ev.Target] {
						if _, parted := partEnd[ev.Target]; !parted {
							ring.Add(ev.Target)
						}
					}
				case faults.NodeLeave:
					memberEvents++
					if extra[ev.Target] {
						delete(extra, ev.Target)
					} else if initial[ev.Target] {
						left[ev.Target] = true
					}
					ring.Remove(ev.Target)
				case faults.Partition:
					memberEvents++
					end := ev.At + ev.For
					if cur, ok := partEnd[ev.Target]; !ok || end > cur {
						partEnd[ev.Target] = end
					}
					ring.Remove(ev.Target)
				}
			}
		}
		req := gen.Next()
		node, err := ring.Locate(req.Key)
		if err != nil {
			// Only reachable when a plan failed every stack at once.
			lost++
			continue
		}
		perStack[node]++
		if cfg.Trace.Enabled() && (i+1)%stride == 0 {
			// One request advances the synthetic time axis by 1us. The
			// former `sim.Time(i+1) * sim.Time(sim.Microsecond)` multiplied
			// two absolute timestamps — numerically identical here, but
			// exactly the unit-mixing class the typed seam now rejects.
			ts := sim.Time(sim.Duration(i+1) * sim.Microsecond)
			for _, name := range names {
				cfg.Trace.Counter(tracks[name], "clustersim."+name+".requests",
					ts, float64(perStack[name]))
			}
		}
	}
	if cfg.Probes != nil {
		cfg.Probes.Counter("clustersim.requests").Add(int64(cfg.Requests))
		for _, name := range names {
			cfg.Probes.Counter("clustersim." + name + ".requests").Add(int64(perStack[name]))
		}
		if cfg.Faults != nil {
			cfg.Probes.Counter("clustersim.faults.applied").Add(int64(applied))
			cfg.Probes.Counter("clustersim.faults.lost_requests").Add(int64(lost))
		}
	}
	survCap := 1.0
	failedCount, degradedCount := 0, 0
	joinedCount, leftCount := 0, 0
	if cfg.Faults != nil {
		sum := 0.0
		for _, name := range names {
			c := capacity[name]
			switch {
			case down[name]:
				c = 0
				failedCount++
			case left[name]:
				c = 0
				leftCount++
			case c < 1:
				degradedCount++
			}
			sum += c
		}
		survCap = sum / float64(cfg.Stacks)
		joinedCount = len(extra)
	}
	served := cfg.Requests - lost
	maxLoad := 0
	for _, n := range perStack {
		if n > maxLoad {
			maxLoad = n
		}
	}
	res := Result{
		PerStack:                  perStack,
		FailedStacks:              failedCount,
		DegradedStacks:            degradedCount,
		JoinedStacks:              joinedCount,
		LeftStacks:                leftCount,
		MembershipEvents:          memberEvents,
		SurvivingCapacityFraction: survCap,
		LostRequests:              lost,
	}
	if served > 0 {
		mean := float64(served) / float64(cfg.Stacks)
		res.Imbalance = float64(maxLoad) / mean
		res.HottestShare = float64(maxLoad) / float64(served)
		res.EffectiveThroughputFraction = 1 / res.Imbalance
	}
	return res, nil
}

// SweepPoint is one entry of a FailureSweep: the distribution outcome
// with Failed stacks removed for the whole run.
type SweepPoint struct {
	Failed int
	Result Result
}

// FailureSweep quantifies capacity after k of n stack failures — the
// paper's resilience question for a 96-stack box. For each k in
// 0..maxFailed it fails stacks 0..k-1 from the start of the run and
// reruns the distribution experiment: consistent hashing keeps the
// remapping local, but the hottest surviving stack still sets the
// throughput ceiling, so EffectiveThroughputFraction shows the real
// capacity left, not just (n-k)/n.
func FailureSweep(cfg Config, maxFailed int) ([]SweepPoint, error) {
	if maxFailed < 0 || maxFailed >= cfg.Stacks {
		return nil, fmt.Errorf("clustersim: maxFailed %d out of range [0, %d)", maxFailed, cfg.Stacks)
	}
	points := make([]SweepPoint, 0, maxFailed+1)
	for k := 0; k <= maxFailed; k++ {
		c := cfg
		c.Trace = nil // one trace per sweep would be meaningless; callers trace single runs
		plan := &faults.Plan{Horizon: sim.Duration(cfg.Requests) * sim.Microsecond}
		for i := 0; i < k; i++ {
			plan.Events = append(plan.Events, faults.Event{
				Kind: faults.StackFail, Target: fmt.Sprintf("stack-%02d", i)})
		}
		c.Faults = plan
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{Failed: k, Result: r})
	}
	return points, nil
}

// HotKeyBound returns the load imbalance floor imposed by the single
// hottest key under a Zipf(s) popularity over n keys routed to `stacks`
// nodes: no placement can split one key's traffic, so the hottest stack
// carries at least that key's share.
func HotKeyBound(s float64, n, stacks int) (float64, error) {
	z, err := workload.NewZipf(s, n)
	if err != nil {
		return 0, err
	}
	// Estimate rank-0 share by sampling.
	r := sim.NewRand(99)
	const samples = 200_000
	hot := 0
	for i := 0; i < samples; i++ {
		if z.Sample(r) == 0 {
			hot++
		}
	}
	share := float64(hot) / samples
	return share * float64(stacks), nil
}
