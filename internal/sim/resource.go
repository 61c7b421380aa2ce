package sim

// Resource models a service station with a fixed number of identical
// servers and an unbounded FIFO queue. Jobs request service for a given
// duration; when a server becomes free the job's completion callback is
// scheduled. This is the building block for memory ports, flash
// controllers, NIC MACs and wire links.
type Resource struct {
	sim     *Simulator
	servers int
	busy    int
	waiting []*job

	hooks *ResourceHooks
}

// ResourceHooks observe a resource's queue transitions; any field may be
// nil. Hooks fire inside the event that causes the transition — in
// deterministic sim order — and must only observe (record spans, bump
// probes), never schedule work or re-enter the resource. Installing
// hooks costs the disabled path one nil-check per transition.
type ResourceHooks struct {
	// Enqueued fires when a job arrives and no server is free;
	// queueLen is the queue length including the new job.
	Enqueued func(now Time, queueLen int)
	// Started fires when a job begins service after waiting.
	Started func(now Time, wait Duration)
	// Completed fires when a job finishes service.
	Completed func(now Time, wait, service Duration)
}

// SetHooks installs (or, with nil, removes) observation hooks.
func (r *Resource) SetHooks(h *ResourceHooks) { r.hooks = h }

// ServiceInfo reports the measured timeline of one completed job.
type ServiceInfo struct {
	Enqueued  Time // Acquire call time
	Started   Time // service start (== Enqueued when no wait)
	Completed Time // service end
}

// Wait is the time the job spent queued for a free server.
func (i ServiceInfo) Wait() Duration { return i.Started.Sub(i.Enqueued) }

type job struct {
	enqueued Time
	service  Duration
	done     func()
	doneInfo func(ServiceInfo)
}

// NewResource creates a resource with the given parallelism.
func NewResource(s *Simulator, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{sim: s, servers: servers}
}

// Acquire enqueues a job needing the given service time; done runs when
// service completes. Service order is strictly FIFO.
func (r *Resource) Acquire(service Duration, done func()) {
	r.acquire(service, done, nil)
}

// AcquireInfo is Acquire with a timed completion callback: done receives
// the job's measured enqueue/start/completion times, which is how the
// server simulation attributes latency to queueing versus service
// without re-deriving the resource's FIFO discipline.
func (r *Resource) AcquireInfo(service Duration, done func(ServiceInfo)) {
	r.acquire(service, nil, done)
}

func (r *Resource) acquire(service Duration, done func(), doneInfo func(ServiceInfo)) {
	if service < 0 {
		service = 0
	}
	j := &job{enqueued: r.sim.Now(), service: service, done: done, doneInfo: doneInfo}
	if r.busy < r.servers {
		r.start(j)
		return
	}
	r.waiting = append(r.waiting, j)
	if r.hooks != nil && r.hooks.Enqueued != nil {
		r.hooks.Enqueued(r.sim.Now(), len(r.waiting))
	}
}

func (r *Resource) start(j *job) {
	started := r.sim.Now()
	wait := started.Sub(j.enqueued)
	r.busy++
	if r.hooks != nil && r.hooks.Started != nil && wait > 0 {
		r.hooks.Started(started, wait)
	}
	r.sim.After(j.service, func() {
		r.busy--
		if len(r.waiting) > 0 {
			next := r.waiting[0]
			copy(r.waiting, r.waiting[1:])
			r.waiting[len(r.waiting)-1] = nil
			r.waiting = r.waiting[:len(r.waiting)-1]
			r.start(next)
		}
		if r.hooks != nil && r.hooks.Completed != nil {
			r.hooks.Completed(r.sim.Now(), wait, j.service)
		}
		if j.done != nil {
			j.done()
		}
		if j.doneInfo != nil {
			j.doneInfo(ServiceInfo{Enqueued: j.enqueued, Started: started, Completed: r.sim.Now()})
		}
	})
}

// Busy reports how many servers are currently serving.
func (r *Resource) Busy() int { return r.busy }

// QueueLen reports the current number of waiting jobs.
func (r *Resource) QueueLen() int { return len(r.waiting) }
