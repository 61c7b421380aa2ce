package faults

import (
	"fmt"

	"kv3d/internal/sim"
)

// GenConfig shapes plan generation. Every knob has a sensible default
// so tests can set only Seed, Targets, and Horizon.
type GenConfig struct {
	// Seed drives every random choice; the same config yields a
	// byte-identical plan.
	Seed uint64
	// Targets are the nodes/stacks faults may strike.
	Targets []string
	// Horizon is the schedule length; no event starts after it.
	Horizon sim.Duration
	// MeanGap is the mean spacing between injected faults
	// (exponential; default Horizon/12).
	MeanGap sim.Duration
	// Kinds to draw from, uniformly (default: NodeDown only — the
	// kill/revive schedule of the headline chaos suite).
	Kinds []Kind
	// MinOutage/MaxOutage bound the length of outage and fault windows
	// (defaults Horizon/20 and Horizon/8).
	MinOutage, MaxOutage sim.Duration
	// MaxConcurrentDown caps how many targets may be down at once
	// (default 1 — the paper's "lose one stack, keep the server"
	// regime). Draws that would exceed it are skipped, keeping the
	// draw sequence deterministic.
	MaxConcurrentDown int
	// LatencyNanos is the injected per-op delay for Latency events
	// (default 5e6 = 5ms).
	LatencyNanos int64
	// DegradePercent is the surviving capacity for StackDegrade events
	// (default 50).
	DegradePercent int64
}

func (cfg GenConfig) withDefaults() GenConfig {
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = cfg.Horizon / 12
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []Kind{NodeDown}
	}
	if cfg.MinOutage <= 0 {
		cfg.MinOutage = cfg.Horizon / 20
	}
	if cfg.MaxOutage <= 0 {
		cfg.MaxOutage = cfg.Horizon / 8
	}
	if cfg.MaxOutage < cfg.MinOutage {
		cfg.MaxOutage = cfg.MinOutage
	}
	if cfg.MaxConcurrentDown <= 0 {
		cfg.MaxConcurrentDown = 1
	}
	if cfg.LatencyNanos <= 0 {
		cfg.LatencyNanos = 5_000_000
	}
	if cfg.DegradePercent <= 0 || cfg.DegradePercent >= 100 {
		cfg.DegradePercent = 50
	}
	return cfg
}

// Generate builds a deterministic fault plan from the seed. Outage
// kinds (NodeDown, StackFail) are emitted as paired down/up events, the
// revival clamped to the horizon so every plan ends with all targets
// back up; windowed kinds carry their window in For.
func Generate(cfg GenConfig) (*Plan, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("faults: Generate needs at least one target")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: Generate needs a positive horizon")
	}
	cfg = cfg.withDefaults()

	rng := sim.NewRand(cfg.Seed)
	plan := &Plan{Seed: cfg.Seed, Horizon: cfg.Horizon}
	// upAt[i] is when target i comes back up; zero means it is up now.
	upAt := make([]sim.Duration, len(cfg.Targets))

	var t sim.Duration
	for {
		t += rng.Exp(cfg.MeanGap)
		if t >= cfg.Horizon {
			break
		}
		kind := cfg.Kinds[rng.Intn(len(cfg.Kinds))]
		ti := rng.Intn(len(cfg.Targets))
		target := cfg.Targets[ti]
		window := cfg.MinOutage +
			sim.Duration(rng.Float64()*float64(cfg.MaxOutage-cfg.MinOutage))
		end := t + window
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		if end <= t {
			continue
		}
		switch kind {
		case NodeDown, StackFail, NodeLeave:
			down := 0
			for _, u := range upAt {
				if u > t {
					down++
				}
			}
			// Skip draws that would strike an already-down target or
			// exceed the concurrency cap; the rng sequence is unchanged,
			// so generation stays deterministic.
			if upAt[ti] > t || down >= cfg.MaxConcurrentDown {
				continue
			}
			up := NodeUp
			switch kind {
			case StackFail:
				up = StackRecover
			case NodeLeave:
				// Membership churn: a graceful leave paired with a
				// rejoin, bounded by the same concurrency cap as
				// outages so a plan never empties the cluster.
				up = NodeJoin
			}
			plan.Events = append(plan.Events,
				Event{At: t, Kind: kind, Target: target},
				Event{At: end, Kind: up, Target: target})
			upAt[ti] = end
		case StackDegrade:
			plan.Events = append(plan.Events,
				Event{At: t, Kind: StackDegrade, Target: target, Arg: cfg.DegradePercent},
				Event{At: end, Kind: StackRecover, Target: target})
		case Latency:
			plan.Events = append(plan.Events,
				Event{At: t, Kind: Latency, Target: target, For: end - t, Arg: cfg.LatencyNanos})
		case ReadStall, WriteStall, Partition:
			plan.Events = append(plan.Events,
				Event{At: t, Kind: kind, Target: target, For: end - t})
		case ConnReset:
			plan.Events = append(plan.Events,
				Event{At: t, Kind: ConnReset, Target: target})
		case NodeJoin:
			// A bare join draw is a scale-out event: instantaneous, no
			// pairing (consumers treat joining a member as a no-op).
			plan.Events = append(plan.Events,
				Event{At: t, Kind: NodeJoin, Target: target})
		}
	}
	sortEvents(plan.Events)
	return plan, nil
}
