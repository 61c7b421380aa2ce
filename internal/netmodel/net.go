// Package netmodel models the 10GbE path between a client and a
// Mercury/Iridium stack: MTU segmentation, wire serialization and
// propagation, and the on-stack NIC MAC (Niagara-2 style store-and-
// forward with buffers). The TCP/IP software costs live with the other
// request-cost parameters in stackmodel; this package is the physics.
package netmodel

import "kv3d/internal/sim"

// 10GbE constants.
const (
	// MTU is the Ethernet payload limit per frame.
	MTU = 1500
	// HeaderBytes is Ethernet+IP+TCP header overhead per frame
	// (14 + 20 + 32 with timestamps).
	HeaderBytes = 66
	// MaxSegment is the TCP payload per frame.
	MaxSegment = MTU - 52 // IP(20) + TCP w/options(32)
	// WireBytesPerSec is 10Gb/s in bytes.
	WireBytesPerSec = 1.25e9
	// PropagationDelay is the one-way client-to-server latency through
	// the top-of-rack switch.
	PropagationDelay = 500 * sim.Nanosecond
	// MACForwardLatency is the fixed per-frame MAC processing cost on
	// top of buffer transfer.
	MACForwardLatency = 100 * sim.Nanosecond
	// MACBytesPerSec is the MAC's internal buffer bandwidth; the
	// on-stack TSV fabric runs well above wire speed, so the MAC is
	// closer to cut-through than store-and-forward.
	MACBytesPerSec = 5e9

	// Table 1 power figures.
	MACPowerW = 0.120
	PHYPowerW = 0.300
	// §5.5 area figures.
	PHYChipMM2    = 441.0 // packaged dual-PHY chip
	PHYsPerChip   = 2
	MaxServerNICs = 96 // back-panel port cap (§5.5)
)

// Segments returns the number of TCP segments carrying payload bytes.
// Zero-byte payloads still need one frame (the request/ack itself).
func Segments(payload int64) int64 {
	if payload <= 0 {
		return 1
	}
	return (payload + MaxSegment - 1) / MaxSegment
}

// FrameBytes returns total on-wire bytes for a payload including
// per-frame headers.
func FrameBytes(payload int64) int64 {
	return payload + Segments(payload)*HeaderBytes
}

// SerializationTime is the time to clock the payload's frames onto the
// wire at 10Gb/s.
func SerializationTime(payload int64) sim.Duration {
	return sim.FromSeconds(float64(FrameBytes(payload)) / WireBytesPerSec)
}

// Link is a simulated unidirectional 10GbE link: frames serialize in
// FIFO order, then arrive after the propagation delay.
type Link struct {
	simr *sim.Simulator
	res  *sim.Resource
}

// NewLink creates a link on the simulator.
func NewLink(s *sim.Simulator) *Link {
	return &Link{simr: s, res: sim.NewResource(s, 1)}
}

// Send delivers payload bytes; delivered runs when the last frame
// arrives at the far end.
func (l *Link) Send(payload int64, delivered func()) {
	l.res.Acquire(SerializationTime(payload), func() {
		l.simr.After(PropagationDelay, delivered)
	})
}

// MAC is the on-stack NIC MAC: it buffers each frame and forwards it to
// the destination core (or the PHY on transmit).
type MAC struct {
	res *sim.Resource
}

// NewMAC creates the MAC with a single forwarding engine.
func NewMAC(s *sim.Simulator) *MAC {
	return &MAC{res: sim.NewResource(s, 1)}
}

// Forward processes a payload's frames; done runs after the last frame
// clears the MAC.
func (m *MAC) Forward(payload int64, done func()) {
	frames := Segments(payload)
	service := MACForwardLatency*sim.Duration(frames) +
		sim.FromSeconds(float64(FrameBytes(payload))/MACBytesPerSec)
	m.res.Acquire(service, done)
}
