package memmodel

// Technology is one row of the paper's Table 2: the bandwidth/capacity
// comparison of DIMM packages against 3D-stacked devices.
type Technology struct {
	Name          string
	BandwidthGBps float64
	CapacityBytes int64
	Stacked       bool
}

// Table2 returns the paper's memory-technology comparison rows, in the
// paper's order, each with the source the paper cites for it.
func Table2() []Technology {
	return []Technology{
		{Name: "DDR3-1333", BandwidthGBps: 10.7, CapacityBytes: 2 << 30},                                    // Pawlowski, Hot Chips 2011
		{Name: "DDR4-2667", BandwidthGBps: 21.3, CapacityBytes: 2 << 30},                                    // Pawlowski, Hot Chips 2011
		{Name: "LPDDR3 (30nm)", BandwidthGBps: 6.4, CapacityBytes: 512 << 20},                               // Bae et al., ISSCC 2012
		{Name: "HMC I (3D-Stack)", BandwidthGBps: 128.0, CapacityBytes: 512 << 20, Stacked: true},           // Pawlowski, Hot Chips 2011
		{Name: "Wide I/O (3D-stack, 50nm)", BandwidthGBps: 12.8, CapacityBytes: 512 << 20, Stacked: true},   // Kim et al., ISSCC 2011
		{Name: "Tezzaron Octopus (3D-Stack)", BandwidthGBps: 50.0, CapacityBytes: 512 << 20, Stacked: true}, // Tezzaron, 2012
		{Name: "Future Tezzaron (3D-stack)", BandwidthGBps: 100.0, CapacityBytes: 4 << 30, Stacked: true},   // Giridhar et al., SC 2013
	}
}
