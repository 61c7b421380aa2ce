package stackmodel

import (
	"fmt"

	"kv3d/internal/cache"
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
	"kv3d/internal/metrics"
	"kv3d/internal/netmodel"
	"kv3d/internal/sim"
	"kv3d/internal/trace"
)

// Config describes one stack configuration under test.
type Config struct {
	Core  cpu.Core
	Cache cache.Hierarchy
	Mem   memmodel.Device
	// CoresPerStack is the n of Mercury-n / Iridium-n.
	CoresPerStack int
	// Costs defaults to DefaultCosts() when zero.
	Costs *RequestCosts
	// DegradedPorts disables that many of the stack's memory ports,
	// modeling a partially failed stack (dead TSVs or vaults): the
	// surviving ports absorb the displaced cores' traffic, so queueing
	// rises and TPS drops instead of the whole stack going dark. At
	// least one port must survive.
	DegradedPorts int
}

func (c Config) costs() RequestCosts {
	if c.Costs != nil {
		return *c.Costs
	}
	return DefaultCosts()
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Mem == nil {
		return fmt.Errorf("stackmodel: nil memory device")
	}
	if c.CoresPerStack < 1 {
		return fmt.Errorf("stackmodel: need at least one core, got %d", c.CoresPerStack)
	}
	if c.CoresPerStack > 2*c.Mem.Ports() {
		return fmt.Errorf("stackmodel: %d cores exceed 2 per memory port (%d ports)",
			c.CoresPerStack, c.Mem.Ports())
	}
	if c.DegradedPorts < 0 || c.DegradedPorts >= c.Mem.Ports() {
		return fmt.Errorf("stackmodel: degraded ports %d out of range [0, %d)",
			c.DegradedPorts, c.Mem.Ports())
	}
	return nil
}

// Stack is the simulated 3D stack plus its closed-loop clients.
type Stack struct {
	cfg   Config
	costs RequestCosts
	simr  *sim.Simulator

	cores []*sim.Resource
	ports []*sim.Resource
	mac   *netmodel.MAC
	up    *netmodel.Link // client -> server
	down  *netmodel.Link // server -> client

	buf   trace.Buffer
	reqID uint64
}

// NewStack builds the simulated stack. Cores are assigned to ports
// round-robin; at 32 cores two cores share each port (§5.3).
func NewStack(cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := sim.New()
	st := &Stack{cfg: cfg, costs: cfg.costs(), simr: s}
	for i := 0; i < cfg.CoresPerStack; i++ {
		st.cores = append(st.cores, sim.NewResource(s, 1))
	}
	for i := 0; i < cfg.Mem.Ports()-cfg.DegradedPorts; i++ {
		st.ports = append(st.ports, sim.NewResource(s, 1))
	}
	st.mac = netmodel.NewMAC(s)
	st.up = netmodel.NewLink(s)
	st.down = netmodel.NewLink(s)
	return st, nil
}

// traceRecord builds a trace entry; toServer selects the direction.
func traceRecord(t sim.Time, toServer bool, bytes int64, id uint64) trace.Record {
	dir := trace.ServerToClient
	if toServer {
		dir = trace.ClientToServer
	}
	return trace.Record{Time: t, Dir: dir, Bytes: bytes, ReqID: id}
}

// portFor maps a core to its memory port.
func (st *Stack) portFor(core int) *sim.Resource {
	return st.ports[core%len(st.ports)]
}

// requestPayload / responsePayload give the TCP payload sizes of one
// memcached transaction of the given value size.
const (
	getRequestOverhead  = 24 // "get <key>\r\n"
	getResponseOverhead = 40 // "VALUE ... END"
	putRequestOverhead  = 40 // "set <key> <flags> <exp> <len>\r\n...\r\n"
	putResponseOverhead = 8  // "STORED\r\n"
)

func payloads(op Op, valueBytes int64) (req, resp int64) {
	if op == Get {
		return getRequestOverhead, valueBytes + getResponseOverhead
	}
	return valueBytes + putRequestOverhead, putResponseOverhead
}

// serviceOnCore computes the pure CPU time of one request on this
// configuration: instruction execution plus cache/memory stall time.
// Port-side occupancy (storage trips, value streaming) is separate so
// that shared-port queueing is simulated, not averaged.
func (st *Stack) serviceOnCore(op Op, valueBytes int64) sim.Duration {
	c := st.cfg
	costs := st.costs
	instr := costs.instr(op)
	// Marginal per-packet work for multi-segment payloads.
	reqP, respP := payloads(op, valueBytes)
	extraSegs := netmodel.Segments(reqP) + netmodel.Segments(respP) - 2
	instr += float64(extraSegs) * costs.PerPacketInstr

	t := c.Core.ComputeTime(instr)

	// Working-set misses through the hierarchy.
	t += st.stallTime(costs.misses(op))

	// Kernel copy of the payload through the network path.
	t += c.Core.StreamTime(valueBytes)
	if op == Put {
		// Slab memcpy of the value (in-cache, faster than the net path).
		f := costs.SlabCopyFactor
		if f < 1 {
			f = 1
		}
		t += sim.FromSeconds(c.Core.StreamTime(valueBytes).Seconds() / f)
	}
	return t
}

// stallTime converts a block's L1-miss count into core stall time.
// L2-served misses overlap up to the core's MLP; storage-bound misses
// only overlap when the device latency fits the out-of-order window
// (DRAM yes, Flash no).
func (st *Stack) stallTime(l1Misses float64) sim.Duration {
	c := st.cfg
	lookup := c.Core.CycleTime(c.Cache.L2LatencyCycles)
	l2Served, memBound := c.Cache.Split(l1Misses)
	memLat := c.Mem.ReadLatency()
	l2Stall := sim.Ps(float64(lookup.Ps()) * l2Served).Duration()
	memStall := sim.Ps(float64((lookup + memLat).Ps()) * memBound).Duration()
	return c.Core.StallTimeAt(l2Stall, lookup) + c.Core.StallTimeAt(memStall, memLat)
}

// portOccupancy computes the storage-device time of one request: the
// per-request unique trips plus the value transfer.
func (st *Stack) portOccupancy(op Op, valueBytes int64) sim.Duration {
	costs := st.costs
	mem := st.cfg.Mem
	var t sim.Duration
	switch mem.Kind() {
	case memmodel.KindDRAM:
		trips := costs.DRAMGetTrips
		if op == Put {
			trips = costs.DRAMPutTrips
		}
		t = sim.Ps(trips * float64(mem.ReadLatency().Ps())).Duration()
		if op == Get {
			t += mem.StreamTime(valueBytes)
		} else {
			t += mem.StreamTime(valueBytes) // slab write-through
		}
	case memmodel.KindFlash:
		if op == Get {
			t = sim.Ps(costs.FlashGetReads*float64(mem.ReadLatency().Ps())).Duration() +
				mem.StreamTime(valueBytes)
		} else {
			programs := costs.FlashPutPrograms
			// Values beyond one page cost additional page programs.
			if extra := memmodel.PagesFor(valueBytes) - 1; extra > 0 {
				programs += float64(extra)
			}
			t = sim.Ps(costs.FlashPutReads*float64(mem.ReadLatency().Ps())).Duration() +
				sim.Ps(programs*float64(mem.WriteLatency().Ps())).Duration()
		}
	}
	return t
}

// runOne issues a single request on the given core and calls done when
// the client has the full response.
func (st *Stack) runOne(core int, op Op, valueBytes int64, done func()) {
	st.reqID++
	id := st.reqID
	reqP, respP := payloads(op, valueBytes)

	st.buf.Append(trace.Record{Time: st.simr.Now(), Dir: trace.ClientToServer, Bytes: reqP, ReqID: id})
	st.up.Send(reqP, func() {
		st.mac.Forward(reqP, func() {
			// Core executes the software path...
			st.cores[core].Acquire(st.serviceOnCore(op, valueBytes), func() {
				// ...then the storage access (port may be shared).
				st.portFor(core).Acquire(st.portOccupancy(op, valueBytes), func() {
					st.mac.Forward(respP, func() {
						st.down.Send(respP, func() {
							st.buf.Append(trace.Record{
								Time: st.simr.Now(), Dir: trace.ServerToClient,
								Bytes: respP, ReqID: id,
							})
							done()
						})
					})
				})
			})
		})
	})
}

// Result is the outcome of a measurement run.
type Result struct {
	// MeanRTT is the trace-derived average round-trip time.
	MeanRTT sim.Duration
	// TPSPerCore = 1 / MeanRTT (single outstanding request per core).
	TPSPerCore float64
	// StackTPS = TPSPerCore × cores, the paper's linear scaling, with
	// port contention included because it is simulated directly.
	StackTPS float64
	// Hist is the RTT distribution in picoseconds.
	Hist *metrics.Histogram
}

// Measure runs requestsPerCore closed-loop requests on every core and
// reports trace-derived statistics.
func (st *Stack) Measure(op Op, valueBytes int64, requestsPerCore int) (Result, error) {
	if requestsPerCore < 1 {
		return Result{}, fmt.Errorf("stackmodel: requestsPerCore must be positive")
	}
	if valueBytes < 0 {
		return Result{}, fmt.Errorf("stackmodel: negative value size")
	}
	st.buf.Reset()
	start := st.simr.Now()

	for core := range st.cores {
		core := core
		remaining := requestsPerCore
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			st.runOne(core, op, valueBytes, func() {
				issue()
			})
		}
		issue()
	}
	st.simr.Run()
	return st.collectResult(start)
}

// collectResult derives trace-based statistics for a finished run;
// TPSPerCore reports the rate of one closed-loop client (one per core).
func (st *Stack) collectResult(start sim.Time) (Result, error) {
	// A snapshot: the extracted view must not alias storage that the
	// next Measure's Reset will reuse.
	rtts := trace.ExtractRTTs(st.buf.Snapshot())
	if len(rtts) == 0 {
		return Result{}, fmt.Errorf("stackmodel: no completed requests")
	}
	hist := metrics.NewHistogram()
	for _, r := range rtts {
		hist.Record(int64(r.Duration.Ps()))
	}
	mean := trace.MeanRTT(rtts)
	span := st.simr.Now().Sub(start)
	return Result{
		MeanRTT:    mean,
		TPSPerCore: 1 / mean.Seconds(),
		StackTPS:   float64(len(rtts)) / span.Seconds(),
		Hist:       hist,
	}, nil
}

// Breakdown reports the Figure 4 decomposition: the fraction of server
// processing time spent in hash computation, memcached metadata work,
// and the network stack (including data transfer), for one request.
type Breakdown struct {
	Hash     float64
	Memcache float64
	NetStack float64
}

// PhaseBreakdown computes the analytic Figure 4 split for this
// configuration at the given op and value size. Wire time is excluded
// (the paper measures server-side execution).
func (st *Stack) PhaseBreakdown(op Op, valueBytes int64) Breakdown {
	c := st.cfg
	costs := st.costs

	var hashI, metaI, netI, hashM, metaM, netM float64
	if op == Get {
		hashI, metaI, netI = costs.GetHashInstr, costs.GetMetaInstr, costs.GetNetInstr
		hashM, metaM, netM = costs.GetHashMisses, costs.GetMetaMisses, costs.GetNetMisses
	} else {
		hashI, metaI, netI = costs.PutHashInstr, costs.PutMetaInstr, costs.PutNetInstr
		hashM, metaM, netM = costs.PutHashMisses, costs.PutMetaMisses, costs.PutNetMisses
	}
	reqP, respP := payloads(op, valueBytes)
	extraSegs := netmodel.Segments(reqP) + netmodel.Segments(respP) - 2
	netI += float64(extraSegs) * costs.PerPacketInstr

	phase := func(instr, misses float64) float64 {
		t := c.Core.ComputeTime(instr)
		t += st.stallTime(misses)
		return t.Seconds()
	}
	hash := phase(hashI, hashM)
	meta := phase(metaI, metaM)
	net := phase(netI, netM)

	// Value movement: the kernel copy and wire-facing work belong to the
	// network stack; the slab copy and storage trips to memcached.
	net += c.Core.StreamTime(valueBytes).Seconds()
	meta += st.portOccupancy(op, valueBytes).Seconds()
	if op == Put {
		f := costs.SlabCopyFactor
		if f < 1 {
			f = 1
		}
		meta += c.Core.StreamTime(valueBytes).Seconds() / f
	}

	total := hash + meta + net
	if total <= 0 {
		return Breakdown{}
	}
	return Breakdown{Hash: hash / total, Memcache: meta / total, NetStack: net / total}
}

// ServiceTime returns the server-side processing time of one request —
// core execution plus storage-port occupancy — excluding wire time and
// queueing. The server-level simulation uses it as the per-request
// service demand.
func (st *Stack) ServiceTime(op Op, valueBytes int64) sim.Duration {
	return st.serviceOnCore(op, valueBytes) + st.portOccupancy(op, valueBytes)
}
