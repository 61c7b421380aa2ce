package sim

// Typed time-unit counts.
//
// Time and Duration already carry the kernel's base unit (integer
// picoseconds), so arithmetic inside the kernel is safe by construction.
// The places that historically mixed units are the raw-integer seams at
// the kernel's edges: histograms record int64 picoseconds, the live
// server's injected clocks and protocol observers hand around int64
// nanoseconds, and the CPU models convert cycle counts into time. An
// untyped int64 crossing one of those seams compiles no matter which
// unit it holds.
//
// Ps and Ns are defined integer types for exactly those seams. Mixing
// them — or assigning one where the other is expected — is now a
// compile error, and the conversions below are the only sanctioned
// crossings.

// Ps is a picosecond count: the kernel's base unit as a defined type
// for raw-integer seams (histogram samples).
type Ps int64

// Ns is a nanosecond count: the live server's clock unit (clock.Clock
// readings, protocol observers) as a defined type.
type Ns int64

// CyclesToPs converts a (possibly fractional) core-cycle count into
// picoseconds given the core's cycle period, truncating toward zero
// exactly like the untyped float64 arithmetic it replaces — callers
// that calibrated against the old `Duration(float64(period) * cycles)`
// idiom get bit-identical results.
func CyclesToPs(cycles float64, cyclePeriod Duration) Ps {
	return Ps(float64(cyclePeriod) * cycles)
}

// Duration converts a typed picosecond count back into a kernel
// Duration (numerically the identity; the types differ so that raw
// int64 seams stay visible).
func (p Ps) Duration() Duration { return Duration(p) }

// Ps returns the duration as a typed picosecond count.
func (d Duration) Ps() Ps { return Ps(d) }
