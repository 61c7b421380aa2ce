package experiments

import (
	"fmt"

	"kv3d/internal/memmodel"
	"kv3d/internal/report"
	"kv3d/internal/sim"
)

func init() {
	registry["dramsim"] = DRAMSim
}

// DRAMSim validates the flat-latency DRAM device against the bank- and
// row-buffer-accurate model of the paper's §4.1.1 organization: random
// metadata accesses should pay ~the closed-page latency (justifying the
// paper's worst-case charge), while sequential value streams should run
// near the port's rated bandwidth (justifying the flat stream model).
func DRAMSim(o Options) (Result, error) {
	accesses := 200_000
	if o.Quick {
		accesses = 20_000
	}
	closed := 10 * sim.Nanosecond
	t := &report.Table{
		Title:   "Bank-level DRAM validation (one port: 8 banks, 8KB rows, 10ns closed-page)",
		Columns: []string{"Access pattern", "Row-hit rate", "Mean latency", "Flat-model charge", "Error"},
		Note:    "the request model charges closed-page latency to metadata trips and port bandwidth to streams; both hold at bank level",
	}

	// Random metadata accesses over the 256MB port space.
	d, err := memmodel.NewBankedDRAM(closed)
	if err != nil {
		return Result{}, err
	}
	rng := sim.NewRand(41)
	var total sim.Duration
	for i := 0; i < accesses; i++ {
		total += d.Access(int64(rng.Uint64() % (256 << 20)))
	}
	randomMean := sim.Duration(int64(total) / int64(accesses))
	flat := d.ClosedPageLatency()
	t.AddRow("random 64B (metadata trips)",
		fmt.Sprintf("%.3f", d.RowHitRate()),
		randomMean.String(), flat.String(),
		fmt.Sprintf("%+.1f%%", 100*(randomMean.Seconds()-flat.Seconds())/flat.Seconds()))

	// Sequential streaming of a 1MB value.
	d.Reset()
	const streamBytes = 1 << 20
	streamTotal := d.StreamAccess(0, streamBytes)
	bw := streamBytes / streamTotal.Seconds()
	flatDev := memmodel.MustDRAM3D(closed)
	flatStream := flatDev.StreamTime(streamBytes)
	t.AddRow("sequential 1MB (value stream)",
		fmt.Sprintf("%.3f", d.RowHitRate()),
		fmt.Sprintf("%.2f GB/s", bw/1e9),
		flatStream.String()+" total",
		fmt.Sprintf("%+.1f%%", 100*(streamTotal.Seconds()-flatStream.Seconds())/flatStream.Seconds()))

	// Pathological: row-conflict ping-pong between two rows in one bank.
	d.Reset()
	rowBytes := int64(memmodel.DRAMPageBytes)
	banks := int64(memmodel.DRAMBanksPerPort)
	var pingpong sim.Duration
	n := accesses / 10
	for i := 0; i < n; i++ {
		addr := int64(0)
		if i%2 == 1 {
			addr = rowBytes * banks // same bank, different row
		}
		pingpong += d.Access(addr)
	}
	ppMean := sim.Duration(int64(pingpong) / int64(n))
	t.AddRow("row ping-pong (worst case)",
		fmt.Sprintf("%.3f", d.RowHitRate()),
		ppMean.String(), flat.String(),
		fmt.Sprintf("%+.1f%%", 100*(ppMean.Seconds()-flat.Seconds())/flat.Seconds()))

	return Result{ID: "dramsim", Tables: []*report.Table{t}}, nil
}
