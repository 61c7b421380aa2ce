// Package serversim simulates a full 1.5U Mercury/Iridium box under
// open-loop load: Poisson request arrivals are routed to stacks by a
// consistent-hash ring (optionally with Zipf-skewed keys), each stack
// serves them from its pool of cores, and server-side latency is
// measured as queueing plus service. This answers the question the
// paper's closed-loop, single-outstanding-request methodology cannot:
// how much of the nominal (linear-scaled) throughput is usable before
// queueing blows the sub-millisecond SLA, and how much hot-key skew
// erodes it.
package serversim

import (
	"fmt"
	"strconv"

	"kv3d/internal/cluster"
	"kv3d/internal/metrics"
	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/stackmodel"
	"kv3d/internal/workload"
)

// Config describes one open-loop server experiment.
type Config struct {
	// Stack is the per-stack configuration (cores, cache, memory).
	Stack stackmodel.Config
	// Stacks is the number of stacks in the box.
	Stacks int
	// Op and ValueBytes shape every request.
	Op         stackmodel.Op
	ValueBytes int64
	// BatchSize turns each GET arrival into a k-key multiget (0 and 1
	// mean plain single-key requests — the arrival process, routing, and
	// results are then bit-identical to the pre-multiget model). With
	// k>1 every arrival demands ServiceTimeMultiget(k, ValueBytes), so
	// CompletedTPS counts batches and key throughput is CompletedTPS×k.
	// Only meaningful for Op == Get.
	BatchSize int
	// OfferedTPS is the open-loop arrival rate for the whole server.
	OfferedTPS float64
	// ZipfSkew skews key popularity (0 = uniform keys).
	ZipfSkew float64
	// Keys is the key-space size (default 100k).
	Keys int
	// VirtualNodes per stack on the routing ring (default 160).
	VirtualNodes int
	// Duration is the simulated time span (default 200ms).
	Duration sim.Duration
	// WarmupFraction of the duration is excluded from stats (default 0.2).
	WarmupFraction float64
	// Seed drives arrivals and key choice.
	Seed uint64

	// Trace, when non-nil, records the run for chrome://tracing /
	// Perfetto: one async span per request (with nested queue/service
	// phases), per-stack wait/serve lanes, and sampled queue-depth and
	// busy-core counters. Tracing is observation-only: it never
	// perturbs model event order, so results match an untraced run.
	// A recorder of capacity 0 keeps the whole run; a ring keeps only
	// its newest events.
	Trace *obs.FlightRecorder[sim.Time]
	// Probes, when non-nil, receives run counters under the
	// "serversim." prefix (arrivals, completions, incomplete, per-stack
	// completions) plus "sim.events_dispatched".
	Probes *obs.Registry
	// SampleEvery is the tracer/probe sampling period for queue-depth
	// and busy-core time series (default 1ms of sim time).
	SampleEvery sim.Duration
}

// Result reports the measured open-loop behaviour.
type Result struct {
	// CompletedTPS noticeably below the offered rate means the box is
	// saturated (queues still growing at the end of the run).
	CompletedTPS float64
	// Latency is the server-side sojourn time (queueing + service).
	Latency metrics.Summary
	// SubMsFraction is the share of measured requests under 1ms.
	SubMsFraction float64
	// HottestUtilization is the busiest per-stack core pool's share of
	// core time spent serving inside the measured window.
	HottestUtilization float64
}

// recordPs is the one sanctioned crossing from kernel time into the
// unit-blind histogram layer: samples are recorded in picoseconds.
func recordPs(h *metrics.Histogram, d sim.Duration) {
	h.Record(int64(d.Ps()))
}

// Run executes the experiment.
func Run(cfg Config) (Result, error) {
	if err := cfg.Stack.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Stacks <= 0 {
		return Result{}, fmt.Errorf("serversim: need stacks > 0, got %d", cfg.Stacks)
	}
	if cfg.OfferedTPS <= 0 {
		return Result{}, fmt.Errorf("serversim: need a positive offered rate")
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 100_000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * sim.Millisecond
	}
	if cfg.WarmupFraction <= 0 || cfg.WarmupFraction >= 1 {
		cfg.WarmupFraction = 0.2
	}

	if cfg.BatchSize > 1 && cfg.Op != stackmodel.Get {
		return Result{}, fmt.Errorf("serversim: batch size %d only applies to GETs", cfg.BatchSize)
	}

	// Per-request service demand, from the calibrated stack model.
	ref, err := stackmodel.NewStack(cfg.Stack)
	if err != nil {
		return Result{}, err
	}
	service := ref.ServiceTime(cfg.Op, cfg.ValueBytes)
	if cfg.BatchSize > 1 {
		service = ref.ServiceTimeMultiget(cfg.BatchSize, cfg.ValueBytes)
	}

	s := sim.New()
	tr := cfg.Trace
	stacks := make([]*sim.Resource, cfg.Stacks)
	names := make([]string, cfg.Stacks)
	tracks := make([]obs.TrackID, cfg.Stacks)
	// Per stack, inside the measured window: requests that arrived
	// and completed, and service time spent.
	measured := make([]struct {
		completed int
		busy      sim.Duration
	}, cfg.Stacks)
	ring := cluster.NewRing(cfg.VirtualNodes)
	byName := make(map[string]int, cfg.Stacks)
	for i := range stacks {
		names[i] = fmt.Sprintf("stack-%02d", i)
		stacks[i] = sim.NewResource(s, cfg.Stack.CoresPerStack)
		ring.Add(names[i])
		byName[names[i]] = i
		if tr.Enabled() {
			tracks[i] = tr.RegisterTrack(names[i])
			obs.InstrumentResource(tr, tracks[i], stacks[i])
		}
	}
	obs.InstrumentSimulator(cfg.Probes, s)
	var arrivalsProbe, completionsProbe *obs.Counter
	if cfg.Probes != nil {
		arrivalsProbe = cfg.Probes.Counter("serversim.arrivals")
		completionsProbe = cfg.Probes.Counter("serversim.completions")
	}

	rng := sim.NewRand(cfg.Seed + 1)
	var zipf *workload.Zipf
	if cfg.ZipfSkew > 0 {
		zipf, err = workload.NewZipf(cfg.ZipfSkew, cfg.Keys)
		if err != nil {
			return Result{}, err
		}
	}
	// owner memoizes the stack each rank's key — "key:%08d" — hashes to
	// on the ring (index+1; 0 not yet placed), so a key is formatted,
	// into one reused buffer, and hashed once per run, not on every
	// arrival.
	owner := make([]int32, cfg.Keys)
	var key, digits []byte
	stackFor := func() (int, error) {
		rank := rng.Intn(cfg.Keys)
		if zipf != nil {
			rank = zipf.Sample(rng)
		}
		if owner[rank] == 0 {
			digits = strconv.AppendInt(digits[:0], int64(rank), 10)
			key = append(append(key[:0], "key:00000000"[:max(12-len(digits), 4)]...), digits...)
			node, err := ring.Locate(string(key))
			if err != nil {
				return 0, err
			}
			owner[rank] = int32(byName[node]) + 1
		}
		return int(owner[rank]) - 1, nil
	}

	hist := metrics.NewHistogram()
	warmEnd := sim.Time(float64(cfg.Duration) * cfg.WarmupFraction)
	end := sim.Time(cfg.Duration)
	completedInWindow := 0
	arrivalCount := 0
	completionCount := 0
	var reqID uint64

	// Queue-depth and busy-core time series per stack, sampled on the
	// event queue itself so samples land at deterministic sim-times.
	if tr.Enabled() {
		every := cfg.SampleEvery
		if every <= 0 {
			every = sim.Millisecond
		}
		sampler := obs.NewSampler(s, tr, every)
		for i := range stacks {
			r := stacks[i]
			sampler.Gauge(tracks[i], "serversim."+names[i]+".queue_depth",
				func() int64 { return int64(r.QueueLen()) })
			sampler.Gauge(tracks[i], "serversim."+names[i]+".busy_cores",
				func() int64 { return int64(r.Busy()) })
		}
		sampler.Start(end)
	}

	mean := sim.FromSeconds(1 / cfg.OfferedTPS)
	arrivalRNG := sim.NewRand(cfg.Seed + 2)
	var arrive func()
	arrive = func() {
		now := s.Now()
		if now >= end {
			return
		}
		idx, err := stackFor()
		if err == nil {
			arrivalCount++
			if arrivalsProbe != nil {
				arrivalsProbe.Add(1)
			}
			reqID++
			rid := reqID
			start := now
			tr.AsyncBegin("req", "request", rid, now)
			tr.Instant(tracks[idx], "route", now)
			stacks[idx].AcquireInfo(service, func(info sim.ServiceInfo) {
				done := info.Completed
				completionCount++
				if completionsProbe != nil {
					completionsProbe.Add(1)
				}
				if tr.Enabled() {
					if info.Wait() > 0 {
						tr.AsyncBegin("req", "queue", rid, info.Enqueued)
						tr.AsyncEnd("req", "queue", rid, info.Started)
					}
					tr.AsyncBegin("req", "service", rid, info.Started)
					tr.AsyncEnd("req", "service", rid, info.Completed)
					tr.AsyncEnd("req", "request", rid, info.Completed)
				}
				measured[idx].busy += overlap(info.Started, info.Completed, warmEnd, end)
				if start >= warmEnd && start < end {
					recordPs(hist, done.Sub(start))
					measured[idx].completed++
				}
				// Throughput counts completions inside the window —
				// counting by arrival would credit queued work that
				// has not been served yet.
				if done >= warmEnd && done < end {
					completedInWindow++
				}
			})
		}
		s.After(arrivalRNG.Exp(mean), arrive)
	}
	s.After(arrivalRNG.Exp(mean), arrive)

	// Run past the end so in-flight requests drain (bounded: 50 extra ms).
	// Requests still unfinished after the bound are not silently lost:
	// they surface as the serversim.incomplete probe.
	s.RunUntil(end.Add(50 * sim.Millisecond))

	window := sim.Duration(end - warmEnd)
	var maxU float64
	for i := range stacks {
		maxU = max(maxU, measured[i].busy.Seconds()/(float64(cfg.Stack.CoresPerStack)*window.Seconds()))
		if cfg.Probes != nil {
			cfg.Probes.Counter("serversim." + names[i] + ".completed").Add(int64(measured[i].completed))
		}
	}
	if cfg.Probes != nil {
		cfg.Probes.Counter("serversim.incomplete").Add(int64(arrivalCount - completionCount))
	}
	return Result{
		CompletedTPS:       float64(completedInWindow) / window.Seconds(),
		Latency:            hist.Summarize(),
		SubMsFraction:      hist.FractionBelow(int64(sim.Millisecond.Ps())),
		HottestUtilization: maxU,
	}, nil
}

// overlap is how much of [from, to) lies inside [lo, hi). A job that
// started before the end of the window completes well within the 50 ms
// drain, so summing it over completions integrates a stack's busy
// cores over the window exactly.
func overlap(from, to, lo, hi sim.Time) sim.Duration {
	return max(0, min(to, hi).Sub(max(from, lo)))
}

// NominalTPS returns the linear-scaling capacity the paper reports:
// stacks x cores / service time. With BatchSize > 1 the rate is in
// batches per second, matching Result.CompletedTPS.
func NominalTPS(cfg Config) (float64, error) {
	ref, err := stackmodel.NewStack(cfg.Stack)
	if err != nil {
		return 0, err
	}
	service := ref.ServiceTime(cfg.Op, cfg.ValueBytes)
	if cfg.BatchSize > 1 {
		service = ref.ServiceTimeMultiget(cfg.BatchSize, cfg.ValueBytes)
	}
	return float64(cfg.Stacks) * float64(cfg.Stack.CoresPerStack) / service.Seconds(), nil
}
