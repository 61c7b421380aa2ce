package obs

import (
	"kv3d/internal/sim"
)

// InstrumentResource attaches tracing hooks to a resource: every job
// that waited gets a "wait" span and every job gets a "serve" span on
// the given track, so per-stack lanes in Perfetto show exactly where
// queueing starts eating the latency budget. A nil recorder installs
// nothing, keeping the disabled path at the resource's own nil-check.
func InstrumentResource(t *FlightRecorder[sim.Time], track TrackID, r *sim.Resource) {
	if t == nil {
		return
	}
	r.SetHooks(&sim.ResourceHooks{
		Started: func(now sim.Time, wait sim.Duration) {
			t.Complete(track, "wait", "", now-sim.Time(wait), now)
		},
		Completed: func(now sim.Time, wait, service sim.Duration) {
			t.Complete(track, "serve", "", now-sim.Time(service), now)
		},
	})
}

// InstrumentSimulator counts dispatched events into the registry probe
// "sim.events_dispatched". A nil registry installs nothing.
func InstrumentSimulator(reg *Registry, s *sim.Simulator) {
	if reg == nil {
		return
	}
	c := reg.Counter("sim.events_dispatched")
	s.SetDispatchHook(func(now sim.Time) { c.Add(1) })
}
