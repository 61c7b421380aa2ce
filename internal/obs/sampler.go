package obs

import "kv3d/internal/sim"

// sampledGauge pairs a gauge with its trace destination.
type sampledGauge struct {
	name  string
	track TrackID
	fn    func() int64
}

// Sampler periodically evaluates registered gauges on the simulation's
// own event queue: it schedules itself with sim.After, so samples land
// at deterministic sim-times interleaved with model events. Each tick
// emits one counter event per gauge, so each series shows up as a
// stepped track in Perfetto.
type Sampler struct {
	s      *sim.Simulator
	tr     *FlightRecorder[sim.Time]
	every  sim.Duration
	until  sim.Time
	gauges []sampledGauge
}

// NewSampler creates a sampler with the given period.
func NewSampler(s *sim.Simulator, tr *FlightRecorder[sim.Time], every sim.Duration) *Sampler {
	if every <= 0 {
		panic("obs: sampler period must be positive")
	}
	return &Sampler{s: s, tr: tr, every: every}
}

// Gauge registers a gauge to be sampled each tick. Must be called
// before Start.
func (sp *Sampler) Gauge(track TrackID, name string, fn func() int64) {
	sp.gauges = append(sp.gauges, sampledGauge{name: name, track: track, fn: fn})
}

// Start schedules the first tick at the current sim time; ticking stops
// after the given deadline so the sampler never keeps a drained
// simulation alive past its measurement window.
func (sp *Sampler) Start(until sim.Time) {
	sp.until = until
	sp.s.At(sp.s.Now(), sp.tick)
}

// tick samples every gauge and reschedules itself.
func (sp *Sampler) tick() {
	now := sp.s.Now()
	for i := range sp.gauges {
		g := &sp.gauges[i]
		sp.tr.Counter(g.track, g.name, now, g.fn())
	}
	if next := now.Add(sp.every); next <= sp.until {
		sp.s.At(next, sp.tick)
	}
}
