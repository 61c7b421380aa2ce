package stackmodel

import (
	"fmt"

	"kv3d/internal/netmodel"
	"kv3d/internal/sim"
)

// Multiget request class: one ASCII "get k1 k2 ... kn" transaction
// serving k keys. The batch pays the per-request network-stack cost
// (Figure 4a's dominant 87% share) once, each key adds its own hash and
// metadata phases plus a small marginal parse/serialize cost, and all k
// values stream back in one response. k=1 is defined to be exactly the
// plain GET path — every function below delegates there, so single-key
// results (including packet traces) are byte-for-byte unchanged.

// multigetPayloads gives the TCP payload sizes of one k-key multiget.
func (st *Stack) multigetPayloads(k int, valueBytes int64) (req, resp int64) {
	if k <= 1 {
		return payloads(Get, valueBytes)
	}
	req = getRequestOverhead + int64(k-1)*st.costs.MultigetPerKeyReqBytes
	resp = int64(k) * (valueBytes + getResponseOverhead)
	return req, resp
}

// serviceOnCoreMultiget is the pure CPU time of one k-key batch.
func (st *Stack) serviceOnCoreMultiget(k int, valueBytes int64) sim.Duration {
	if k <= 1 {
		return st.serviceOnCore(Get, valueBytes)
	}
	c := st.cfg
	costs := st.costs
	fk := float64(k)

	// Per-key phases scale with k; the netstack base cost does not.
	instr := fk*(costs.GetHashInstr+costs.GetMetaInstr) +
		costs.GetNetInstr + (fk-1)*costs.MultigetPerKeyNetInstr
	reqP, respP := st.multigetPayloads(k, valueBytes)
	extraSegs := netmodel.Segments(reqP) + netmodel.Segments(respP) - 2
	instr += float64(extraSegs) * costs.PerPacketInstr
	t := c.Core.ComputeTime(instr)

	misses := fk*(costs.GetHashMisses+costs.GetMetaMisses) +
		costs.GetNetMisses + (fk-1)*costs.MultigetPerKeyNetMisses
	t += st.stallTime(misses)

	// Kernel copy of all k values through the network path.
	t += c.Core.StreamTime(int64(k) * valueBytes)
	return t
}

// portOccupancyMultiget is the storage-device time of one k-key batch:
// every key takes its own per-request trips and value stream (the batch
// amortizes the network stack, not the storage accesses).
func (st *Stack) portOccupancyMultiget(k int, valueBytes int64) sim.Duration {
	if k <= 1 {
		return st.portOccupancy(Get, valueBytes)
	}
	per := st.portOccupancy(Get, valueBytes)
	var t sim.Duration
	for i := 0; i < k; i++ {
		t += per
	}
	return t
}

// ServiceTimeMultiget returns the server-side processing time of one
// k-key multiget, the batch analogue of ServiceTime(Get, ·).
func (st *Stack) ServiceTimeMultiget(k int, valueBytes int64) sim.Duration {
	return st.serviceOnCoreMultiget(k, valueBytes) + st.portOccupancyMultiget(k, valueBytes)
}

// runOneMultiget issues a single k-key batch on the given core.
func (st *Stack) runOneMultiget(core, k int, valueBytes int64, done func()) {
	if k <= 1 {
		st.runOne(core, Get, valueBytes, done)
		return
	}
	st.reqID++
	id := st.reqID
	reqP, respP := st.multigetPayloads(k, valueBytes)

	st.buf.Append(traceRecord(st.simr.Now(), true, reqP, id))
	st.up.Send(reqP, func() {
		st.mac.Forward(reqP, func() {
			st.cores[core].Acquire(st.serviceOnCoreMultiget(k, valueBytes), func() {
				st.portFor(core).Acquire(st.portOccupancyMultiget(k, valueBytes), func() {
					st.mac.Forward(respP, func() {
						st.down.Send(respP, func() {
							st.buf.Append(traceRecord(st.simr.Now(), false, respP, id))
							done()
						})
					})
				})
			})
		})
	})
}

// MeasureMultiget runs batchesPerCore closed-loop k-key multigets on
// every core. Result counts batches: Completed and StackTPS are batch
// rates, so key throughput is StackTPS × k. MeasureMultiget(1, v, n)
// reproduces Measure(Get, v, n) exactly, trace and all.
func (st *Stack) MeasureMultiget(k int, valueBytes int64, batchesPerCore int) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("stackmodel: batch size must be positive, got %d", k)
	}
	if batchesPerCore < 1 {
		return Result{}, fmt.Errorf("stackmodel: batchesPerCore must be positive")
	}
	if valueBytes < 0 {
		return Result{}, fmt.Errorf("stackmodel: negative value size")
	}
	st.buf.Reset()
	start := st.simr.Now()

	for core := range st.cores {
		core := core
		remaining := batchesPerCore
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			st.runOneMultiget(core, k, valueBytes, func() {
				issue()
			})
		}
		issue()
	}
	st.simr.Run()
	return st.collectResult(start)
}
