// Package stackmodel simulates one Mercury or Iridium 3D stack serving
// memcached requests: n cores, 16 memory ports, and an on-stack NIC MAC,
// driven by closed-loop clients over simulated 10GbE. A request executes
// the paper's Figure 4 decomposition — hash computation, memcached
// metadata work, and network-stack processing — on a cpu.Core with a
// cache.Hierarchy over a memmodel.Device, and the resulting RTTs are
// recovered from the packet trace exactly as the paper does (§5.3).
package stackmodel

// RequestCosts holds the calibrated per-request cost decomposition.
//
// The instruction counts and miss counts are the model's calibration
// surface. They were fitted to the paper's anchors (see DESIGN.md §5):
//
//   - A7+L2 @10ns, 64B GET  → ≈11.0 KTPS/core (Table 4: 8.44M / 768)
//   - A15@1GHz ≈ 2.5–3× A7 with an L2 at small sizes (§6.2)
//   - GET small-request split ≈ 87% netstack / 10% memcached / 2–3% hash
//     (Figure 4a); PUT metadata share ≈ 20–30% (Figure 4b)
//   - Iridium+L2: several-KTPS GETs, <1 KTPS PUTs; no-L2 <100 TPS (§6.2)
//
// The counts themselves are gem5-plausible for Linux TCP/IP on 1GHz ARM
// cores: ~30k instructions and ~1.2k L1 misses to receive, look up, and
// answer one small request through the kernel socket path.
type RequestCosts struct {
	// Fixed instruction counts per GET request.
	GetHashInstr float64
	GetMetaInstr float64
	GetNetInstr  float64
	// Fixed instruction counts per PUT request.
	PutHashInstr float64
	PutMetaInstr float64
	PutNetInstr  float64
	// PerPacketInstr is charged for every TCP segment beyond the first
	// (interrupt coalescing and TSO-style batching make the marginal
	// segment far cheaper than the first).
	PerPacketInstr float64

	// L1 miss counts per request for each phase (working-set misses,
	// absorbed by an L2 when present).
	GetHashMisses float64
	GetMetaMisses float64
	GetNetMisses  float64
	PutHashMisses float64
	PutMetaMisses float64
	PutNetMisses  float64

	// Storage trips are per-request-unique accesses that always reach
	// the storage device (hash bucket, item header, allocator state).
	// Flash packs the item with its metadata in a page (McDipper-style
	// layout), so it takes fewer but far slower trips.
	DRAMGetTrips  float64
	DRAMPutTrips  float64
	FlashGetReads float64
	FlashPutReads float64
	// FlashPutPrograms is the page programs per PUT: the value page plus
	// FTL map and metadata persistence. It sets Figure 6's PUT columns
	// against the paper's "below 1,000": the default 5 gives 883 A15 PUTs/s
	// at 64 B with the 2MB L2, 6 would give 750, and no other
	// experiment's output depends on it.
	FlashPutPrograms float64

	// SlabCopyFactor scales the core's stream rate for the in-memory
	// item copy a PUT performs (an in-cache memcpy is faster than the
	// kernel network path).
	SlabCopyFactor float64

	// Multiget amortization. A k-key batched GET enters and leaves the
	// kernel once: the per-request network-stack cost (GetNetInstr — the
	// 87% of Figure 4a) is paid once per batch, and each key beyond the
	// first adds only the marginal parse/serialize work below plus its
	// own hash + metadata phases. At k=1 a multiget degenerates to the
	// plain GET decomposition exactly.
	MultigetPerKeyNetInstr  float64
	MultigetPerKeyNetMisses float64
	// MultigetPerKeyReqBytes is the request-payload growth per extra key
	// ("get k1 k2 ...": one more space-separated key token).
	MultigetPerKeyReqBytes int64
}

// DefaultCosts returns the calibrated cost set used by every experiment.
func DefaultCosts() RequestCosts {
	return RequestCosts{
		GetHashInstr: 750,
		GetMetaInstr: 3000,
		GetNetInstr:  26250,

		PutHashInstr: 750,
		PutMetaInstr: 6000,
		PutNetInstr:  26000,

		PerPacketInstr: 200,

		GetHashMisses: 50,
		GetMetaMisses: 150,
		GetNetMisses:  1000,
		PutHashMisses: 50,
		PutMetaMisses: 350,
		PutNetMisses:  900,

		DRAMGetTrips:  8,
		DRAMPutTrips:  12,
		FlashGetReads: 3,
		FlashPutReads: 3,

		FlashPutPrograms: 5,
		SlabCopyFactor:   4,

		// ~10% of the full per-request netstack cost per marginal key:
		// socket read of a longer line, one more VALUE header, and the
		// response append — no extra syscall, interrupt, or TCP work.
		MultigetPerKeyNetInstr:  2500,
		MultigetPerKeyNetMisses: 120,
		MultigetPerKeyReqBytes:  25,
	}
}

// Op is the request type.
type Op int

const (
	// Get is a memcached GET (read) request.
	Get Op = iota
	// Put is a memcached SET (write) request.
	Put
)

func (o Op) String() string {
	if o == Get {
		return "GET"
	}
	return "PUT"
}

// instr returns the fixed instruction count for an op.
func (c RequestCosts) instr(op Op) float64 {
	if op == Get {
		return c.GetHashInstr + c.GetMetaInstr + c.GetNetInstr
	}
	return c.PutHashInstr + c.PutMetaInstr + c.PutNetInstr
}

// misses returns the fixed L1-miss count for an op.
func (c RequestCosts) misses(op Op) float64 {
	if op == Get {
		return c.GetHashMisses + c.GetMetaMisses + c.GetNetMisses
	}
	return c.PutHashMisses + c.PutMetaMisses + c.PutNetMisses
}
